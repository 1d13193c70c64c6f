(* Fig. 7: insertion and deletion efficiency of the extended (Ex-ORAM)
   method — average per-operation time vs n, cases |X| = 1 and |X| = 2.
   As in §VII-E: insert n rows into empty structures, then delete all. *)

open Core
open Relation

let measure n =
  let session = Session.create ~seed:(70 + n) ~n ~m:2 () in
  let rng = Crypto.Rng.create (1000 + n) in
  let a = Ex_oram_method.create session (Attrset.singleton 0) ~capacity:n in
  let b = Ex_oram_method.create session (Attrset.singleton 1) ~capacity:n in
  let ab = Ex_oram_method.create session (Attrset.of_list [ 0; 1 ]) ~capacity:n in
  let values =
    Array.init n (fun _ ->
        (Value.Int (1 + Crypto.Rng.int rng (1 lsl 20)), Value.Int (1 + Crypto.Rng.int rng (1 lsl 20))))
  in
  (* Insert all rows; time the single-attribute and combined inserts
     separately. *)
  let t_ins1 = ref 0.0 and t_ins2 = ref 0.0 in
  for id = 0 to n - 1 do
    let va, vb = values.(id) in
    t_ins1 :=
      !t_ins1
      +. Bench_util.time_unit (fun () -> Ex_oram_method.insert_value a ~row:id va);
    ignore (Bench_util.time_unit (fun () -> Ex_oram_method.insert_value b ~row:id vb));
    t_ins2 :=
      !t_ins2
      +. Bench_util.time_unit (fun () ->
             Ex_oram_method.insert_combined ab ~gen1:a ~gen2:b [ id ])
  done;
  (* Delete all rows. *)
  let t_del1 = ref 0.0 and t_del2 = ref 0.0 in
  for id = 0 to n - 1 do
    t_del2 := !t_del2 +. Bench_util.time_unit (fun () -> Ex_oram_method.delete ab ~row:id);
    t_del1 := !t_del1 +. Bench_util.time_unit (fun () -> Ex_oram_method.delete a ~row:id);
    Ex_oram_method.delete b ~row:id
  done;
  let avg t = t /. float_of_int n in
  (avg !t_ins1, avg !t_del1, avg !t_ins2, avg !t_del2)

let run (opts : Bench_util.opts) =
  let ks = if opts.Bench_util.full then [ 4; 6; 8; 10; 12 ] else [ 4; 6; 8; 9 ] in
  Bench_util.header "Fig. 7: insertion and deletion efficiency (Ex-ORAM, avg per op)";
  Printf.printf "%8s | %12s %12s | %12s %12s\n" "" "|X| = 1" "" "|X| = 2" "";
  Printf.printf "%8s | %12s %12s | %12s %12s\n" "n" "insert" "delete" "insert" "delete";
  List.iter
    (fun k ->
      let n = Bench_util.pow2 k in
      let i1, d1, i2, d2 = measure n in
      Printf.printf "%8d | %12s %12s | %12s %12s\n%!" n (Bench_util.pretty_time i1)
        (Bench_util.pretty_time d1) (Bench_util.pretty_time i2) (Bench_util.pretty_time d2))
    ks;
  Printf.printf
    "\n\
     Expected shape (paper Fig. 7): every curve grows ~ log n (ORAM path length);\n\
     |X| = 1 insert and delete nearly coincide; |X| = 2 insertion costs about\n\
     twice its deletion (four ORAMs accessed vs two).  Here an insert fuses\n\
     its KLF read and write into one access (EXPERIMENTS.md), so |X| = 1\n\
     inserts take 2 accesses against a delete's 4, and |X| = 2 inserts 4.\n%!"
