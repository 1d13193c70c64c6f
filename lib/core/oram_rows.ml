(* The ORAM methods' row schedule: each frame reads one row's two Path
   ORAM accesses and the next row's key lookup, and the call's
   write-behind batch carries the evictions (see the interface for the
   frame layout). *)

module Frame = Servsim.Frame

type generator = {
  ids : Oram.Path_oram.t;
  label : string -> int;
}

type source =
  | Column of Enc_db.t * int
  | Generators of { gen1 : generator; gen2 : generator; base : int }

type target = {
  kl : Oram.Path_oram.t;
  il : Oram.Path_oram.t;
  record : key:string -> string option -> string * string;
}

let id_key row = Relation.Codec.encode_int row

(* A row's key lookup, read one frame ahead of the row: the key, and
   the evictions its generator accesses leave to put. *)
let lookup source row =
  match source with
  | Column (db, col) ->
      Frame.map
        (fun cells ->
          let v = List.hd cells in
          ( Compression.key_of_value
              (v
              [@lint.declassify
                "trusted-client FD state; the server sees only the fixed row schedule of \
                 oblivious ORAM accesses and the result reveals only FD(DB)"]),
            [] ))
        (Enc_db.cells db ~col [ row ])
  | Generators { gen1; gen2; base } ->
      let r1 = Oram.Path_oram.fetch gen1.ids ~key:(id_key row) Fun.id in
      let r2 = Oram.Path_oram.fetch gen2.ids ~key:(id_key row) Fun.id in
      let label gen = function
        | Some p -> gen.label p
        | None -> invalid_arg "Oram_rows: record missing in a generator"
      in
      Frame.map
        (fun ((l1, w1), (l2, w2)) ->
          (Compression.key_of_labels ~n:base (label gen1 l1) (label gen2 l2), w1 @ w2))
        (Frame.both r1 r2)

(* Row [row]'s two accesses under [key]: the [kl] access records the
   row, and the [il] access stores the payload [record] gave it. *)
let accesses target ~key row =
  let il_payload = ref "" in
  let kl =
    Oram.Path_oram.fetch target.kl ~key (fun prev ->
        let kl, il = target.record ~key prev in
        il_payload := il;
        Some kl)
  in
  let il = Oram.Path_oram.fetch target.il ~key:(id_key row) (fun _ -> Some !il_payload) in
  Frame.map (fun ((_, wk), (_, wi)) -> wk @ wi) (Frame.both kl il)

(* Each frame reads the previous row's accesses [prev] and the next
   row's lookup; the row's accesses are built once its key is back. *)
let run source target rows =
  Frame.with_batch (fun frames ->
      let rec go prev = function
        | [] -> Frame.put frames (Frame.read frames prev)
        | row :: rest ->
            let lk = lookup source row in
            let evictions, (key, lookup_puts) = Frame.read frames (Frame.both prev lk) in
            Frame.put frames (lookup_puts @ evictions);
            go (accesses target ~key row) rest
      in
      go { Frame.gets = []; finish = (fun _ -> []) } rows)
