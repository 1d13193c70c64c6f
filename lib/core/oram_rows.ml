(* The ORAM methods' row schedule: split-phase Path ORAM accesses packed
   one frame per row (see the interface for the frame layout). *)

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

(* A row's key lookup, carried one frame ahead of the row: its gets, and
   how their blocks give the key and the evictions to put. *)
type lookup = (string * Frame.puts) Frame.read

let id_key row = Relation.Codec.encode_int row

let lookup source row : lookup =
  match source with
  | Column (db, col) ->
      {
        Frame.gets = [ (Enc_db.store db, [ Enc_db.slot db ~row ~col ]) ];
        finish =
          (fun blocks ->
            let v = Enc_db.decode_cell db (List.hd (List.hd blocks)) in
            ( Compression.key_of_value
                (v
                [@lint.declassify
                  "trusted-client FD state; the server sees only the fixed row \
                   schedule of oblivious ORAM accesses and the result reveals only FD(DB)"]),
              [] ));
      }
  | Generators { gen1; gen2; base } ->
      let p1 = Oram.Path_oram.plan gen1.ids ~key:(id_key row) in
      let p2 = Oram.Path_oram.plan gen2.ids ~key:(id_key row) in
      {
        Frame.gets = [ Oram.Path_oram.fetch_slots p1; Oram.Path_oram.fetch_slots p2 ];
        finish =
          (fun blocks ->
            let b1, b2 =
              match blocks with [ b1; b2 ] -> (b1, b2) | _ -> assert false
            in
            let l1, w1 = Oram.Path_oram.complete p1 b1 Fun.id in
            let l2, w2 = Oram.Path_oram.complete p2 b2 Fun.id in
            let label gen = function
              | Some p -> gen.label p
              | None -> invalid_arg "Oram_rows: record missing in a generator"
            in
            (Compression.key_of_labels ~n:base (label gen1 l1) (label gen2 l2), [ w1; w2 ]));
      }

(* Row [row] whose lookup [lk] came back as [answers], with the previous
   row's evictions [held] still to put. *)
let rec step source target ~held row lk answers rest =
  let key, lookup_puts = lk.Frame.finish answers in
  let pk = Oram.Path_oram.plan target.kl ~key in
  let pi = Oram.Path_oram.plan target.il ~key:(id_key row) in
  let next = match rest with r :: rest -> Some (r, lookup source r, rest) | [] -> None in
  let next_gets = match next with Some (_, l, _) -> l.Frame.gets | None -> [] in
  match
    Frame.exchange ~puts:(lookup_puts @ held)
      ~gets:(Oram.Path_oram.fetch_slots pk :: Oram.Path_oram.fetch_slots pi :: next_gets)
  with
  | bk :: bi :: next_answers -> (
      let il_payload = ref "" in
      let _, wk =
        Oram.Path_oram.complete pk bk (fun prev ->
            let kl, il = target.record ~key prev in
            il_payload := il;
            Some kl)
      in
      let _, wi = Oram.Path_oram.complete pi bi (fun _ -> Some !il_payload) in
      match next with
      | Some (r, l, rest) -> step source target ~held:[ wk; wi ] r l next_answers rest
      | None -> Frame.send [ wk; wi ])
  | _ -> assert false

let run source target = function
  | [] -> ()
  | row :: rest ->
      let lk = lookup source row in
      step source target ~held:[] row lk (Frame.exchange ~puts:[] ~gets:lk.Frame.gets) rest
