(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§VII).

     dune exec bench/main.exe                 # all experiments, scaled sizes
     dune exec bench/main.exe -- fig4 fig7    # a subset
     dune exec bench/main.exe -- --full       # larger sweeps (slower)
     dune exec bench/main.exe -- micro        # Bechamel micro-benchmarks
     dune exec bench/main.exe -- micro --smoke  # seconds-long harness check *)

let experiments =
  [
    ("table1", "dataset summary", Exp_table1.run);
    ("table2", "obliviousness KS tests + storage", Exp_table2.run);
    ("table3", "complexity summary + ORAM ablation", Exp_table3.run);
    ("fig4", "runtime scalability", Exp_fig4.run);
    ("fig5", "storage and client memory scalability", Exp_fig5.run);
    ("fig6a", "Sort parallelism", Exp_fig6.run_fig6a);
    ("fig6b", "Sort in a secure enclave", Exp_fig6.run_fig6b);
    ("fig7", "Ex-ORAM insertion/deletion", Exp_fig7.run);
    ("ablation", "baseline frontier, recursive ORAM, compression", Exp_ablation.run);
    ("micro", "Bechamel micro-benchmarks", Exp_micro.run);
    ("service", "multi-tenant daemon load harness", Exp_service.run);
    ("store", "disk-backed tenant store churn harness", Exp_store.run);
    ("dynamic", "streaming dynamic-FD session load harness", Exp_dynamic.run);
    ("oram", "ORAM variant x capacity sweep", Exp_oram.run);
  ]

let default_set =
  [ "table1"; "table2"; "table3"; "fig4"; "fig5"; "fig6a"; "fig6b"; "fig7"; "ablation"; "micro";
    "service"; "store"; "dynamic"; "oram" ]

let usage () =
  prerr_endline "usage: main.exe [--full] [--smoke] [experiment ...]";
  prerr_endline "experiments:";
  List.iter (fun (n, d, _) -> Printf.eprintf "  %-8s %s\n" n d) experiments;
  exit 2

(* Hidden re-exec entry points: the service harness runs its daemon and
   load clients as child processes of this same binary, because
   [Unix.fork] is unavailable once OCaml 5 domains have run. *)
let () =
  match Array.to_list Sys.argv with
  | _ :: "service-daemon" :: path :: _ -> exit (Exp_service.daemon_main path)
  | _ :: "service-client" :: path :: ns :: ops :: depth :: out :: _ ->
      exit (Exp_service.client_main path ns (int_of_string ops) (int_of_string depth) out)
  | _ -> ()

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let full = List.mem "--full" args in
  let smoke = List.mem "--smoke" args in
  let names = List.filter (fun a -> a <> "--full" && a <> "--smoke") args in
  let names = if names = [] then default_set else names in
  List.iter
    (fun a ->
      if a = "--help" || a = "-h" || not (List.mem_assoc a (List.map (fun (n, d, f) -> (n, (d, f))) experiments))
      then usage ())
    names;
  let opts = { Bench_util.full; smoke } in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      let _, _, f = List.find (fun (n, _, _) -> n = name) experiments in
      f opts)
    names;
  Printf.printf "\nTotal bench time: %.1f s\n%!" (Unix.gettimeofday () -. t0)
