type gets = (Block_store.t * int list) list
type puts = (Block_store.t * (int * string) list) list

(* The first [k] items of [vs], and [vs] without them. *)
let[@tail_mod_cons] rec prefix k = function
  | v :: vs when k > 0 -> v :: prefix (k - 1) vs
  | _ -> []

let rec drop k = function
  | _ :: vs when k > 0 -> drop (k - 1) vs
  | vs -> vs

type 'a read = {
  gets : gets;
  finish : string list -> 'a;
}

let map f r = { r with finish = (fun blocks -> f (r.finish blocks)) }

let width r = List.fold_left (fun n (_, slots) -> n + List.length slots) 0 r.gets

(* Finishes complete ORAM accesses, which draw leaves and IVs, so they
   run in the order the reads were given.  The last read takes the
   blocks left as they are. *)
let both r1 r2 =
  {
    gets = r1.gets @ r2.gets;
    finish =
      (fun blocks ->
        let k = width r1 in
        let a1 = r1.finish (prefix k blocks) in
        let a2 = r2.finish (drop k blocks) in
        (a1, a2));
  }

let all rs =
  let rec finish blocks = function
    | [] -> []
    | [ r ] -> [ r.finish blocks ]
    | r :: rs ->
        let k = width r in
        let a = r.finish (prefix k blocks) in
        a :: finish (drop k blocks) rs
  in
  { gets = List.concat_map (fun r -> r.gets) rs; finish = (fun blocks -> finish blocks rs) }

let get r = r.finish (Block_store.exchange ~puts:[] ~gets:r.gets)
let send puts = ignore (Block_store.exchange ~puts ~gets:[])

type t = { mutable held : puts }

(* At most one batch is held: a batch put with no read since the last
   one sends that one first, so the client never holds more than one. *)
let put t puts =
  send t.held;
  t.held <- puts

let read t r =
  let blocks = Block_store.exchange ~puts:t.held ~gets:r.gets in
  t.held <- [];
  r.finish blocks

let flush t =
  send t.held;
  t.held <- []

let with_batch f =
  let t = { held = [] } in
  let y = f t in
  flush t;
  y
