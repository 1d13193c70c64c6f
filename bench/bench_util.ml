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

(* The checkout's commit for BENCH_*.json stamps; "unknown" outside git. *)
let git_rev () =
  match Unix.open_process_in "git describe --always --dirty 2>/dev/null" with
  | exception Unix.Unix_error _ -> "unknown"
  | ic -> (
      let line = In_channel.input_line ic in
      match (Unix.close_process_in ic, line) with
      | Unix.WEXITED 0, Some rev when rev <> "" -> rev
      | _ -> "unknown")

let time f =
  let t0 = Unix.gettimeofday () in
  let y = f () in
  (y, Unix.gettimeofday () -. t0)

let time_unit f = snd (time f)

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
