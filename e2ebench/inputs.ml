(* Every input of a run comes from the benchmark seed.

   The seed changes every value and row position the program sees but
   not the shape of the work: a table is a fixed base table with its
   rows in seeded order and each column's values under a seeded
   permutation of that column's own value set.  That keeps every
   partition, hence the FD set and the lattice walk, so the oblivious
   methods do the same work at every seed (their traces depend only on
   Size(DB) and FD(DB)) and counts repeat exactly across seeds. *)

open Relation

let rng seed tag = Crypto.Rng.create ((seed lsl 16) lxor tag)

(* The client seed (key, IVs, ORAM leaves) of repetition [rep]; the
   same [rep] gets the same client seed in every workload. *)
let client_seed ~seed rep = Crypto.Rng.int (rng seed (1000 + rep)) 0x3FFFFFFF

let relabel rng table =
  let n = Table.rows table and m = Table.cols table in
  let order = Array.init n Fun.id in
  Crypto.Rng.shuffle rng order;
  let maps =
    Array.init m (fun c ->
        let values =
          Array.of_list (List.sort_uniq Value.compare (Array.to_list (Table.column table c)))
        in
        let image = Array.copy values in
        Crypto.Rng.shuffle rng image;
        let h = Hashtbl.create (Array.length values) in
        Array.iteri (fun i v -> Hashtbl.replace h v image.(i)) values;
        h)
  in
  Table.make (Table.schema table)
    (Array.init n (fun r -> Array.mapi (fun c v -> Hashtbl.find maps.(c) v) (Table.row table order.(r))))

let discovery_table ~rows ~seed = relabel (rng seed 1) (Datasets.Adult_like.generate ~rows ())

(* {2 The dynamic stream} *)

let dyn_cols = 3
let dyn_domain = 16

(* RND with column 2 replaced by a bijection of column 0 (5 is a unit
   mod 16), so 0 -> 2 and 2 -> 0 hold initially and every Revalidate
   reports real FD statuses. *)
let dyn_table ~rows ~seed =
  let base = Datasets.Rnd.generate_with_domain ~rows ~cols:dyn_cols ~domain:dyn_domain () in
  let planted =
    Array.init rows (fun r ->
        let row = Array.copy (Table.row base r) in
        (match row.(0) with
        | Value.Int v -> row.(2) <- Value.Int ((v * 5 mod dyn_domain) + 1)
        | Value.Str _ -> invalid_arg "Inputs.dyn_table: RND cells are integers");
        row)
  in
  relabel (rng seed 2) (Table.make (Table.schema base) planted)

let dyn_begin_seed ~seed = Crypto.Rng.int (rng seed 4) 0x3FFFFFFF

type op =
  | Insert of Value.t array
  | Delete of int  (** a raw draw, reduced mod the live count when served *)
  | Revalidate

(* A fixed 10-op cycle (60% inserts, 30% deletes of a live record, 10%
   revalidates): only row values and victims depend on the seed, so the
   oblivious work of a stream depends only on its length. *)
let cycle = [| `I; `I; `D; `I; `R; `I; `D; `I; `I; `D |]

let dyn_ops ~seed ~count =
  let rng = rng seed 3 in
  List.init count (fun i ->
      match cycle.(i mod Array.length cycle) with
      | `I -> Insert (Array.init dyn_cols (fun _ -> Value.Int (1 + Crypto.Rng.int rng dyn_domain)))
      | `D -> Delete (Crypto.Rng.int rng 0x3FFFFFFF)
      | `R -> Revalidate)

let inserts ops = List.length (List.filter (function Insert _ -> true | _ -> false) ops)

(* The live record ids, with the victim choice both the daemon stream
   and the library replay use. *)
module Live = struct
  type t = { mutable ids : int array; mutable len : int }

  let create n = { ids = Array.init (max 16 n) Fun.id; len = n }

  let add t id =
    if t.len = Array.length t.ids then
      t.ids <- Array.append t.ids (Array.make (Array.length t.ids) 0);
    t.ids.(t.len) <- id;
    t.len <- t.len + 1

  (* Remove and return the victim of draw [k] (swap with the last). *)
  let take t k =
    let i = k mod t.len in
    let id = t.ids.(i) in
    t.len <- t.len - 1;
    t.ids.(i) <- t.ids.(t.len);
    id

  let to_list t = List.init t.len (fun i -> t.ids.(i))
end
