let run (passes : Network.pass array) ~exchange =
  Array.iter (fun (p : Network.pass) -> exchange p.components) passes

(* Persistent workers: domains are spawned once for the whole network and
   synchronise between passes on a reusable barrier — per-pass domain
   churn (and its stop-the-world GC synchronisations) would otherwise eat
   the parallel speedup.  Every exchange closure is built here, in the
   calling domain, before any worker starts: [make_exchange] may touch
   state that is not domain-safe (the session's randomness), and an
   exception from it leaves no domain behind. *)
let run_parallel (passes : Network.pass array) ~domains ~make_exchange =
  if domains < 1 then invalid_arg "Driver.run_parallel: domains must be >= 1";
  if domains = 1 then run passes ~exchange:(make_exchange 0)
  else begin
    let exchanges = Array.init domains make_exchange in
    let barrier = Barrier.create domains in
    (* The first exception a worker raised; the others then raise
       [Barrier.Broken] and are not recorded. *)
    let failed = Atomic.make None in
    let worker w () =
      let exchange = exchanges.(w) in
      try
        Array.iter
          (fun { Network.components; _ } ->
            let len = Array.length components in
            let share = (len + domains - 1) / domains in
            let lo = min len (w * share) and hi = min len ((w + 1) * share) in
            if lo < hi then exchange (Array.sub components lo (hi - lo));
            Barrier.wait barrier)
          passes
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        ignore (Atomic.compare_and_set failed None (Some (e, bt)));
        Barrier.break barrier
    in
    let spawned = Array.init (domains - 1) (fun w -> Domain.spawn (worker (w + 1))) in
    worker 0 ();
    Array.iter Domain.join spawned;
    Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) (Atomic.get failed)
  end
