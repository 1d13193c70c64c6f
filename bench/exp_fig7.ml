(* Fig. 7: insertion and deletion efficiency of the extended (Ex-ORAM)
   method — average per-operation time vs n, cases |X| = 1 and |X| = 2.
   As in §VII-E: insert n rows into empty structures, then delete all.
   Updates go through the set-wide calls a dynamic session uses: the
   |X| = 1 case updates the set list {A}, the |X| = 2 case the list
   {A, B, AB}, since AB keys each row by the labels A and B give it in
   the same call. *)

open Core
open Relation

(* Average insert and delete time, and frames per insert and per
   delete, over [n] rows streamed into the sets [xs] and back out. *)
let measure ~session ~n ~values xs =
  let hs = List.map (fun x -> Ex_oram_method.create session x ~capacity:n) xs in
  let cost = Session.cost session in
  let trips () = (Servsim.Cost.snapshot cost).Servsim.Cost.round_trips in
  let timed f =
    let t0 = trips () in
    let s = Bench_util.time_unit f in
    (s, trips () - t0)
  in
  let sum ops =
    List.fold_left (fun (s, k) (s', k') -> (s +. s', k + k')) (0.0, 0) (List.init n ops)
  in
  let t_ins, f_ins = sum (fun id -> timed (fun () -> Ex_oram_method.insert hs ~row:id values.(id))) in
  let t_del, f_del = sum (fun id -> timed (fun () -> Ex_oram_method.delete hs ~row:id)) in
  List.iter Ex_oram_method.release hs;
  (t_ins /. float_of_int n, t_del /. float_of_int n, f_ins / n, f_del / n)

let run (opts : Bench_util.opts) =
  let ks =
    if opts.Bench_util.smoke then [ 3; 4 ]
    else if opts.Bench_util.full then [ 4; 6; 8; 10; 12 ]
    else [ 4; 6; 8; 9 ]
  in
  (* Warm-up: the process's first updates pay one-off costs that would
     otherwise land in the smallest n's |X| = 1 insert column. *)
  ignore
    (measure ~session:(Session.create ~seed:1 ~n:16 ~m:2 ()) ~n:16
       ~values:(Array.init 16 (fun i -> [| Value.Int i; Value.Int i |]))
       [ Attrset.singleton 0 ]);
  Bench_util.header "Fig. 7: insertion and deletion efficiency (Ex-ORAM, avg per op)";
  Printf.printf "%8s | %12s %12s %7s | %12s %12s %7s\n" "" "|X| = 1" "" "" "|X| = 2" "" "";
  Printf.printf "%8s | %12s %12s %7s | %12s %12s %7s\n" "n" "insert" "delete" "frames"
    "insert" "delete" "frames";
  List.iter
    (fun k ->
      let n = Bench_util.pow2 k in
      let session = Session.create ~seed:(70 + n) ~n ~m:2 () in
      let rng = Crypto.Rng.create (1000 + n) in
      let values =
        Array.init n (fun _ ->
            [|
              Value.Int (1 + Crypto.Rng.int rng (1 lsl 20));
              Value.Int (1 + Crypto.Rng.int rng (1 lsl 20));
            |])
      in
      let a = Attrset.singleton 0 and b = Attrset.singleton 1 in
      let i1, d1, fi1, fd1 = measure ~session ~n ~values [ a ] in
      let i2, d2, fi2, fd2 = measure ~session ~n ~values [ a; b; Attrset.union a b ] in
      let frames i d = Printf.sprintf "%d/%d" i d in
      Printf.printf "%8d | %12s %12s %7s | %12s %12s %7s\n%!" n (Bench_util.pretty_time i1)
        (Bench_util.pretty_time d1) (frames fi1 fd1) (Bench_util.pretty_time i2)
        (Bench_util.pretty_time d2) (frames fi2 fd2))
    ks;
  Printf.printf
    "\n\
     Expected shape (paper Fig. 7): every curve grows ~ log n (ORAM path length).\n\
     Each column is one set-wide update, two fused accesses per set (EXPERIMENTS.md):\n\
     |X| = 1 is 2 accesses per insert and per delete, so the two nearly coincide;\n\
     |X| = 2 updates {A, B, AB}, 6 accesses each, about three times |X| = 1.\n\
     Frames (insert/delete) are max|X| + 1 and 3: 2/3 for |X| = 1, 3/3 for |X| = 2.\n%!"
