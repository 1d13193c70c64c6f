(* fdiscover: secure FD discovery from the command line.

     fdiscover --dataset adult --rows 128 --method sort
     fdiscover --csv data.csv --method or-oram --max-lhs 2
     fdiscover --dataset rnd --rows 64 --method sort --enclave
     fdiscover --dataset fig1 --baseline *)

open Cmdliner
open Relation

let load_table dataset csv rows seed =
  match (csv, dataset) with
  | Some path, _ -> Csv.load path
  | None, "adult" -> Datasets.Adult_like.generate ~seed ~rows ()
  | None, "letter" -> Datasets.Letter_like.generate ~seed ~rows ()
  | None, "flight" -> Datasets.Flight_like.generate ~seed ~rows ()
  | None, "rnd" -> Datasets.Rnd.generate ~seed ~rows ~cols:8 ()
  | None, "fig1" -> Datasets.Examples.fig1 ()
  | None, "employee" -> Datasets.Examples.employee ()
  | None, other -> invalid_arg (Printf.sprintf "unknown dataset %S" other)

let method_of_string = function
  | "sort" -> Core.Protocol.Sort
  | "or-oram" -> Core.Protocol.Or_oram
  | "ex-oram" -> Core.Protocol.Ex_oram
  | other -> invalid_arg (Printf.sprintf "unknown method %S" other)

let run dataset csv rows seed method_name max_lhs enclave baseline det_baseline
    epsilon remote verbose debug =
  if debug then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.Src.set_level Core.Log.src (Some Logs.Debug)
  end;
  try
    let table = load_table dataset csv rows seed in
    let schema = Table.schema table in
    Format.printf "Loaded %d rows x %d columns.@." (Table.rows table) (Table.cols table);
    let print_fds fds =
      List.iter (fun fd -> Format.printf "  %a@." (Fdbase.Fd.pp_named schema) fd) fds
    in
    if baseline then begin
      let r = Fdbase.Tane.discover ?max_lhs table in
      Format.printf "Plaintext TANE: %d minimal FDs (%d lattice nodes).@."
        (List.length r.Fdbase.Lattice.fds) r.Fdbase.Lattice.sets_checked;
      print_fds r.Fdbase.Lattice.fds;
      `Ok ()
    end
    else if det_baseline then begin
      let r = Baseline.Freq_fd.discover ?max_lhs (String.make 16 'K') table in
      Format.printf
        "Frequency-revealing baseline (deterministic encryption): %d FDs in %.3fs.@."
        (List.length r.Baseline.Freq_fd.fds) r.Baseline.Freq_fd.elapsed_s;
      print_fds r.Baseline.Freq_fd.fds;
      Format.printf
        "WARNING: this mode leaks every column's frequency histogram to the server@.";
      `Ok ()
    end
    else begin
      match epsilon with
      | Some epsilon ->
          let r =
            Core.Protocol.discover_approx ~seed ?max_lhs ~epsilon (method_of_string method_name)
              table
          in
          Format.printf "Secure %g-approximate FD discovery (%s): %d FDs.@." epsilon
            method_name
            (List.length r.Fdbase.Approx.fds);
          print_fds r.Fdbase.Approx.fds;
          `Ok ()
      | None ->
          let discover_once () =
            if enclave then Core.Enclave.discover ~seed ?max_lhs table
            else if remote then
              Service.Daemon.with_local (fun path _ ->
                  let conn = Servsim.Remote.connect_unix path in
                  Fun.protect
                    ~finally:(fun () -> Servsim.Remote.close conn)
                    (fun () ->
                      Core.Protocol.discover ~seed ?max_lhs ~remote:conn
                        (method_of_string method_name) table))
            else
              Core.Protocol.discover ~seed ?max_lhs (method_of_string method_name) table
          in
          let report = discover_once () in
          Format.printf "Secure FD discovery (%s%s%s): %d minimal FDs.@."
            (if enclave then "enclave " else "")
            (if remote && not enclave then "remote " else "")
            (if enclave then "Sort" else method_name)
            (List.length report.Core.Protocol.fds);
          print_fds report.Core.Protocol.fds;
          if verbose then begin
            Format.printf "@.%a@." Servsim.Cost.pp_snapshot report.Core.Protocol.cost;
            Format.printf
              "elapsed: %.3f s, trace: %d accesses, shape digest %016Lx, full digest %016Lx@."
              report.Core.Protocol.elapsed_s report.Core.Protocol.trace_count
              report.Core.Protocol.trace_shape report.Core.Protocol.trace_full
          end;
          `Ok ()
    end
  with
  | Invalid_argument msg -> `Error (false, msg)
  | Sys_error msg -> `Error (false, msg)

let dataset =
  Arg.(value & opt string "fig1"
       & info [ "dataset"; "d" ] ~docv:"NAME"
           ~doc:"Built-in dataset: fig1, employee, adult, letter, flight, rnd.")

let csv =
  Arg.(value & opt (some string) None
       & info [ "csv" ] ~docv:"FILE" ~doc:"Load the table from a CSV file (header row).")

let rows =
  Arg.(value & opt int 64
       & info [ "rows"; "n" ] ~docv:"N" ~doc:"Rows to generate for built-in datasets.")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let method_name =
  Arg.(value & opt string "sort"
       & info [ "method"; "m" ] ~docv:"METHOD" ~doc:"sort, or-oram, or ex-oram.")

let max_lhs =
  Arg.(value & opt (some int) None
       & info [ "max-lhs" ] ~docv:"K" ~doc:"Cap left-hand-side size (lattice depth).")

let enclave =
  Arg.(value & flag & info [ "enclave" ] ~doc:"Run the Sort method in the SGX simulation.")

let baseline =
  Arg.(value & flag & info [ "baseline" ] ~doc:"Run plaintext TANE instead of a secure method.")

let det_baseline =
  Arg.(value & flag
       & info [ "det-baseline" ]
           ~doc:"Run the frequency-revealing prior-art baseline (deterministic encryption).")

let epsilon =
  Arg.(value & opt (some float) None
       & info [ "approx" ] ~docv:"EPS" ~doc:"Discover EPS-approximate FDs (split error).")

let remote =
  Arg.(value & flag
       & info [ "remote" ]
           ~doc:"Serve the protocol from the block-service daemon on a temporary Unix \
                 socket (served from a spawned domain) and run every block access over it.")

let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print cost accounting.")

let debug =
  Arg.(value & flag & info [ "debug" ] ~doc:"Enable protocol debug logging on stderr.")

let cmd =
  let doc = "secure functional dependency discovery in outsourced databases" in
  Cmd.v
    (Cmd.info "fdiscover" ~doc)
    Term.(ret (const run $ dataset $ csv $ rows $ seed $ method_name $ max_lhs
               $ enclave $ baseline $ det_baseline $ epsilon $ remote $ verbose $ debug))

let () = exit (Cmd.eval cmd)
