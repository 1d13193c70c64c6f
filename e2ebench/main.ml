(* End-to-end secure FD discovery benchmark.

     main.exe run --workload W --seed S --seconds T --trace 0|1
         one workload; the last stdout line is the JSON result
     main.exe e2e --seed S [--smoke] [--seconds T] [--out DIR]
         every workload, untraced then traced; writes DIR/e2e.json and
         DIR/trace-<workload>.json (never with --smoke)
     main.exe compare OLD.json NEW.json
         verdict per workload x end-to-end metric; nonzero on a regression

   Every command takes [--benchmark FILE] (default BENCHMARK.json), the
   catalog of metric names, units, directions and bounds that the
   workloads' output is checked against.  See README.md. *)

(* The daemon workloads re-exec this binary as their daemon. *)
let () =
  match Array.to_list Sys.argv with
  | _ :: "daemon" :: sock :: data_dir :: _ ->
      exit (Daemon.main ~sock ~data_dir:(if data_dir = "-" then None else Some data_dir))
  | _ -> ()

(* A runner that gives up on a run stops it with SIGTERM or SIGINT.
   Unwind instead of dying, so that the daemon is stopped and waited
   for and the scratch directory is removed on the way out. *)
exception Stopped

let () =
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> raise Stopped)))
    [ Sys.sigterm; Sys.sigint ]

let workloads = [ "or-local"; "sort-local"; "or-daemon"; "dyn-stream" ]

(* Workload sizes; --smoke shrinks every one so that all code paths
   and checks run in seconds. *)
let discovery_rows ~smoke = if smoke then 16 else 64
let max_lhs ~smoke = if smoke then 1 else 2
let dyn_rows ~smoke = if smoke then 16 else 128
let dyn_ops ~smoke = if smoke then 40 else 400

(* Seconds of untimed repetitions before a timed run measures. *)
let warm_up = 2.

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Sockets and data directories live in a scratch directory under the
   working directory, removed when the workload ends. *)
let run_dirs = ref 0

let with_run_dir f =
  incr run_dirs;
  let dir = Printf.sprintf ".e2ebench-run-%d-%d" (Unix.getpid ()) !run_dirs in
  rm_rf dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let run_workload ~smoke ~seed ~seconds ~traced name =
  with_run_dir (fun run_dir ->
      let discovery kind =
        Discovery.run ~traced
          {
            Discovery.seed;
            seconds = (if smoke then 0. else seconds);
            rows = discovery_rows ~smoke;
            max_lhs = max_lhs ~smoke;
            min_reps = 2;
            setups_per_rep = (if smoke then 2 else 10);
            warm_up = (if smoke then 0. else warm_up);
            run_dir;
          }
          kind
      in
      match name with
      | "or-local" -> discovery Discovery.Or_local
      | "sort-local" -> discovery Discovery.Sort_local
      | "or-daemon" -> discovery Discovery.Or_daemon
      | "dyn-stream" ->
          (* The traced run follows one repetition. *)
          Dynstream.run ~traced
            {
              Dynstream.seed;
              seconds = (if smoke || traced then 0. else seconds);
              rows = dyn_rows ~smoke;
              ops = dyn_ops ~smoke;
              min_reps = (if traced then 1 else 3);
              warm_up = (if smoke || traced then 0. else warm_up);
              run_dir;
            }
      | w -> invalid_arg ("unknown workload " ^ w))

(* {2 The catalog} *)

type catalog = {
  end_to_end : (string * string) list;
  per_layer : (string * string) list;
  run_seconds : float;
}

let load_catalog path =
  let j = Json.read_file path in
  let names k =
    List.map
      (fun m -> (Json.to_str (Json.member "name" m), Json.to_str (Json.member "unit" m)))
      (Json.to_list (Json.member k j))
  in
  {
    end_to_end = names "end_to_end";
    per_layer = names "per_layer";
    run_seconds = Json.to_float (Json.member "run_seconds" j);
  }

(* A workload reports the metrics of its own layers; the result carries
   every catalog metric, in catalog order.  A layer a workload does not
   pass through reads 0; an end-to-end metric is never 0. *)
let complete catalog ~traced (o : Measure.outcome) =
  let want = if traced then catalog.per_layer else catalog.end_to_end in
  let got = if traced then o.per_layer else o.end_to_end in
  List.iter
    (fun (m : Measure.metric) ->
      match List.assoc_opt m.name want with
      | None -> failwith (Printf.sprintf "%s: %s is not in the catalog" o.workload m.name)
      | Some u when u <> m.unit_ ->
          failwith (Printf.sprintf "%s: %s is in %s, the catalog says %s" o.workload m.name m.unit_ u)
      | Some _ -> ())
    got;
  let filled =
    List.map
      (fun (name, unit_) ->
        match List.find_opt (fun (m : Measure.metric) -> m.name = name) got with
        | Some m when traced || m.value > 0. -> m
        | Some _ -> failwith (Printf.sprintf "%s: %s is not positive" o.workload name)
        | None when traced -> Measure.exact name unit_ 0.
        | None -> failwith (Printf.sprintf "%s: %s was not measured" o.workload name))
      want
  in
  if traced then { o with per_layer = filled } else { o with end_to_end = filled }

(* {2 Commands} *)

let usage () =
  prerr_endline
    "usage: main.exe run --workload W --seed S --seconds T --trace 0|1\n\
    \       main.exe e2e --seed S [--smoke] [--seconds T] [--out DIR]\n\
    \       main.exe compare OLD.json NEW.json\n\
     (all take --benchmark FILE, default BENCHMARK.json)";
  exit 2

(* [--key value] options, [--flag]s and positional arguments. *)
let parse args =
  let rec go opts flags pos = function
    | "--smoke" :: tl -> go opts ("--smoke" :: flags) pos tl
    | k :: v :: tl when String.starts_with ~prefix:"--" k -> go ((k, v) :: opts) flags pos tl
    | k :: _ when String.starts_with ~prefix:"--" k -> usage ()
    | p :: tl -> go opts flags (p :: pos) tl
    | [] -> (opts, flags, List.rev pos)
  in
  go [] [] [] args

let opt opts k = List.assoc_opt k opts

let int_opt opts k =
  match Option.map int_of_string_opt (opt opts k) with
  | Some (Some v) -> Some v
  | Some None -> usage ()
  | None -> None

let cmd_run opts =
  ignore (Cpu.pin_one ());
  let benchmark = Option.value ~default:"BENCHMARK.json" (opt opts "--benchmark") in
  let catalog = load_catalog benchmark in
  let workload =
    match opt opts "--workload" with Some w when List.mem w workloads -> w | _ -> usage ()
  in
  let seed = Option.value ~default:1 (int_opt opts "--seed") in
  let seconds =
    Option.fold ~none:catalog.run_seconds ~some:float_of_int (int_opt opts "--seconds")
  in
  let traced = int_opt opts "--trace" = Some 1 in
  let o = complete catalog ~traced (run_workload ~smoke:false ~seed ~seconds ~traced workload) in
  Measure.print_lines o;
  let metrics = if traced then o.per_layer else o.end_to_end in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (o.failed = 0));
            ("attempted", Json.Num (float_of_int o.attempted));
            ("failed", Json.Num (float_of_int o.failed));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (m : Measure.metric) ->
                     (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]))
                   metrics) );
          ]));
  exit (if o.failed = 0 then 0 else 1)

let git_rev () =
  match Unix.open_process_in "git describe --always --dirty 2>/dev/null" with
  | exception Unix.Unix_error _ -> "unknown"
  | ic -> (
      let line = In_channel.input_line ic in
      match (Unix.close_process_in ic, line) with
      | Unix.WEXITED 0, Some rev when rev <> "" -> rev
      | _ -> "unknown")

(* One metric of the first workload made worse: a comparison of a
   results file with this copy must report a regression. *)
let worsen results ~metric =
  let map_assoc f k = function
    | Json.Obj l -> Json.Obj (List.map (fun (k', v) -> if k' = k then (k', f v) else (k', v)) l)
    | v -> v
  in
  let first = List.hd workloads in
  map_assoc
    (map_assoc
       (map_assoc
          (map_assoc (map_assoc (fun v -> Json.Num (2. *. Json.to_float v)) "value") metric)
          "end_to_end")
       first)
    "workloads" results

let compare_self_test ~benchmark results =
  with_run_dir (fun dir ->
      let a = Filename.concat dir "a.json" and b = Filename.concat dir "b.json" in
      Json.write_file a results;
      Json.write_file b (worsen results ~metric:"round_trips");
      let same = Compare.run ~bounds:benchmark a a in
      let worse = Compare.run ~bounds:benchmark a b in
      if same <> 0 || worse = 0 then failwith "compare self-test: wrong verdicts";
      print_endline "compare self-test: a file against itself passes, a worsened copy fails")

let cmd_e2e opts flags =
  (* Counted before pinning: the count follows this process's affinity. *)
  let host_cores = Domain.recommended_domain_count () in
  let cpu = Cpu.pin_one () in
  let benchmark = Option.value ~default:"BENCHMARK.json" (opt opts "--benchmark") in
  let catalog = load_catalog benchmark in
  let smoke = List.mem "--smoke" flags in
  let seed = Option.value ~default:1 (int_opt opts "--seed") in
  let seconds =
    Option.fold ~none:catalog.run_seconds ~some:float_of_int (int_opt opts "--seconds")
  in
  let out = Option.value ~default:"e2ebench/results" (opt opts "--out") in
  let runs =
    List.map
      (fun w ->
        let run traced =
          let o = complete catalog ~traced (run_workload ~smoke ~seed ~seconds ~traced w) in
          Measure.print_lines o;
          o
        in
        let untraced = run false in
        (w, untraced, run true))
      workloads
  in
  let num i = Json.Num (float_of_int i) in
  let results =
    Json.Obj
      [
        ("schema", Json.Str "sfdd-bench-e2e/1");
        ("git_rev", Json.Str (git_rev ()));
        ("host_cores", num host_cores);
        ("pinned_cpu", num cpu);
        ("ocaml_version", Json.Str Sys.ocaml_version);
        ("seed", num seed);
        ("smoke", Json.Bool smoke);
        ("seconds", Json.Num seconds);
        ( "inputs",
          Json.Obj
            [
              ("discovery_rows", num (discovery_rows ~smoke));
              ("max_lhs", num (max_lhs ~smoke));
              ("dyn_rows", num (dyn_rows ~smoke));
              ("dyn_ops", num (dyn_ops ~smoke));
            ] );
        ( "workloads",
          Json.Obj
            (List.map
               (fun (w, (u : Measure.outcome), (t : Measure.outcome)) ->
                 ( w,
                   Json.Obj
                     [
                       ( "repetitions",
                         Json.Obj [ ("untraced", num u.repetitions); ("traced", num t.repetitions) ] );
                       ("attempted", num (u.attempted + t.attempted));
                       ("failed", num (u.failed + t.failed));
                       ("failures", Json.Arr (List.map (fun f -> Json.Str f) (u.failures @ t.failures)));
                       ("end_to_end", Measure.metrics_json u.end_to_end);
                       ("per_layer", Measure.metrics_json t.per_layer);
                     ] ))
               runs) );
      ]
  in
  let failed = List.exists (fun (_, (u : Measure.outcome), (t : Measure.outcome)) -> u.failed + t.failed > 0) runs in
  if failed then begin
    prerr_endline "e2e: correctness checks failed";
    exit 1
  end;
  if smoke then compare_self_test ~benchmark results
  else begin
    Json.write_file (Filename.concat out "e2e.json") results;
    List.iter
      (fun (w, _, (t : Measure.outcome)) ->
        Option.iter
          (fun spans ->
            Json.write_file
              (Filename.concat out (Printf.sprintf "trace-%s.json" w))
              (Json.Obj
                 [ ("workload", Json.Str w); ("seed", num seed); ("spans", Spans.to_json spans) ]))
          t.spans)
      runs;
    Printf.printf "written to %s/e2e.json and %s/trace-<workload>.json\n" out out
  end

let () =
  match parse (List.tl (Array.to_list Sys.argv)) with
  | opts, _, [ "run" ] -> cmd_run opts
  | opts, flags, [ "e2e" ] -> cmd_e2e opts flags
  | opts, _, [ "compare"; old_file; new_file ] ->
      let bounds = Option.value ~default:"BENCHMARK.json" (opt opts "--benchmark") in
      exit (if Compare.run ~bounds old_file new_file = 0 then 0 else 1)
  | _ -> usage ()
