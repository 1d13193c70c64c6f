(* Shared helpers for the experiment harness.

   Every experiment prints the rows/series of the corresponding paper
   table or figure.  Default sizes are scaled down from the paper's
   (their testbed is two 16-core machines; ours is a single-process
   simulation doing real AES for every block) — pass --full for larger
   sweeps.  Shapes, not absolute numbers, are the reproduction target;
   see EXPERIMENTS.md. *)

type opts = {
  full : bool; (* larger sweeps *)
  smoke : bool; (* tiny sizes: exercise every harness path in seconds *)
}

(* The checkout's commit for BENCH_*.json stamps; "unknown" outside git.
   It is "<rev>-dirty" only when a tracked file other than a top-level
   BENCH_*.json differs from HEAD: a full run rewrites those files, and
   one harness's results must not mark every later harness's stamp. *)
let git_rev () =
  match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
  | exception Unix.Unix_error _ -> "unknown"
  | ic -> (
      let line = In_channel.input_line ic in
      match (Unix.close_process_in ic, line) with
      | Unix.WEXITED 0, Some rev when rev <> "" ->
          let clean =
            Sys.command
              "git diff --quiet HEAD -- ':(top)' ':(top,exclude)BENCH_*.json' 2>/dev/null"
            = 0
          in
          if clean then rev else rev ^ "-dirty"
      | _ -> "unknown")

(* Write a harness's BENCH_*.json through [emit].  A full run rewrites
   [file] in the working directory; a --smoke run writes a fresh
   temporary file instead, so a harness check never overwrites the
   committed full-run data. *)
let write_bench_json opts file emit =
  let path =
    if opts.smoke then Filename.temp_file (Filename.remove_extension file ^ "-smoke") ".json"
    else file
  in
  Out_channel.with_open_text path emit;
  Printf.printf "  (written to %s)\n%!" path

let time f =
  let t0 = Unix.gettimeofday () in
  let y = f () in
  (y, Unix.gettimeofday () -. t0)

let time_unit f = snd (time f)

(* A repeated measurement as a JSON object: its median, quartiles and
   extremes, each printed with [fmt]. *)
let json_spread ?(fmt = Printf.sprintf "%.6f") samples =
  let a = Array.of_list samples in
  let q = Stats.Summary.quantile a in
  Printf.sprintf "{\"median\": %s, \"p25\": %s, \"p75\": %s, \"min\": %s, \"max\": %s}"
    (fmt (Stats.Summary.median a))
    (fmt (q 0.25)) (fmt (q 0.75))
    (fmt (Stats.Summary.min a))
    (fmt (Stats.Summary.max a))

let header title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n%!"

let subheader t = Printf.printf "\n--- %s ---\n%!" t

let pow2 k = 1 lsl k

let pretty_bytes b =
  if b >= 10 * 1024 * 1024 then Printf.sprintf "%.1f MB" (float_of_int b /. 1048576.0)
  else if b >= 10 * 1024 then Printf.sprintf "%.1f KB" (float_of_int b /. 1024.0)
  else Printf.sprintf "%d B" b

let pretty_time s =
  if s >= 1.0 then Printf.sprintf "%.2f s" s
  else if s >= 1e-3 then Printf.sprintf "%.2f ms" (s *. 1000.0)
  else Printf.sprintf "%.1f us" (s *. 1e6)

(* The three real-world stand-ins at a given sample size, plus RND. *)
let sampled_dataset ~rng ~rows = function
  | `Adult ->
      Relation.Table.sample_rows
        (Datasets.Adult_like.generate ~rows:(2 * rows) ())
        (Crypto.Rng.int rng) rows
  | `Letter ->
      Relation.Table.sample_rows
        (Datasets.Letter_like.generate ~rows:(2 * rows) ())
        (Crypto.Rng.int rng) rows
  | `Flight ->
      Relation.Table.sample_rows
        (Datasets.Flight_like.generate ~rows:(2 * rows) ())
        (Crypto.Rng.int rng) rows
  | `Rnd -> Datasets.Rnd.generate ~seed:(Crypto.Rng.int rng 100000) ~rows ~cols:10 ()

let dataset_name = function
  | `Adult -> "Adult"
  | `Letter -> "Letter"
  | `Flight -> "Flight"
  | `Rnd -> "RND"

let all_methods = [ Core.Protocol.Or_oram; Core.Protocol.Ex_oram; Core.Protocol.Sort ]
