type gets = (Servsim.Block_store.t * int list) list
type puts = (Servsim.Block_store.t * (int * string) list) list

(* [k] items off the front of [vs], and the rest. *)
let rec take k vs acc =
  if k = 0 then (List.rev acc, vs)
  else match vs with v :: vs -> take (k - 1) vs (v :: acc) | [] -> assert false

(* A frame's answer, cut into one block list per get group. *)
let split (gets : gets) values =
  List.rev
    (fst
       (List.fold_left
          (fun (acc, vs) (_, slots) ->
            let mine, vs = take (List.length slots) vs [] in
            (mine :: acc, vs))
          ([], values) gets))

let exchange ~puts ~gets = split gets (Servsim.Block_store.exchange ~puts ~gets)

type 'a read = {
  gets : gets;
  finish : string list list -> 'a;
}

let map f r = { r with finish = (fun answers -> f (r.finish answers)) }

let both r1 r2 =
  {
    gets = r1.gets @ r2.gets;
    finish =
      (fun answers ->
        let a1, a2 = take (List.length r1.gets) answers [] in
        (r1.finish a1, r2.finish a2));
  }

let get r = r.finish (exchange ~puts:[] ~gets:r.gets)
let send puts = ignore (exchange ~puts ~gets:[])

type t = { mutable held : puts }

let create () = { held = [] }

(* At most one batch is held: a batch put with no read since the last
   one sends that one first, so the client never holds more than one. *)
let put t puts =
  send t.held;
  t.held <- puts

let read t r =
  let answers = exchange ~puts:t.held ~gets:r.gets in
  t.held <- [];
  r.finish answers

let flush t =
  send t.held;
  t.held <- []
