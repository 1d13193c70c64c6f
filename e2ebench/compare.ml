(* [compare OLD NEW]: a verdict per workload x end-to-end metric of two
   results files, against the bounds in BENCHMARK.json.

   A metric is worse when NEW's value is worse than OLD's by more than
   its bound, better when it is better by more than the bound, and same
   otherwise.  When either side's own spread (p25 to p75 of its
   repetitions, as a share of the median) exceeds the bound, the
   verdict is unresolved, unless every NEW sample beats every OLD
   sample.  Any worse verdict, a metric or workload missing from NEW,
   or a higher failed share fails the comparison. *)

type bound = { unit_ : string; lower_is_better : bool; bound : float }

let load_bounds path =
  List.map
    (fun m ->
      ( Json.to_str (Json.member "name" m),
        {
          unit_ = Json.to_str (Json.member "unit" m);
          lower_is_better = Json.to_str (Json.member "better" m) = "lower";
          bound = Json.to_float (Json.member "bound" m);
        } ))
    (Json.to_list (Json.member "end_to_end" (Json.read_file path)))

type side = { value : float; median : float; lo : float; hi : float; p25 : float; p75 : float }

(* A single-sample metric (a count) has only its value. *)
let side m =
  let value = Json.to_float (Json.member "value" m) in
  let get k = Option.fold ~none:value ~some:Json.to_float (Json.member_opt k m) in
  { value; median = get "median"; lo = get "min"; hi = get "max"; p25 = get "p25"; p75 = get "p75" }

let spread s = if s.median = 0. then 0. else (s.p75 -. s.p25) /. Float.abs s.median

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "WORSE"
  | Unresolved -> "unresolved"

(* [change] is signed so that positive means worse. *)
let judge b o n =
  let change =
    if o.value = 0. then if n.value = 0. then 0. else Float.infinity
    else (n.value -. o.value) /. Float.abs o.value
  in
  let change = if b.lower_is_better then change else -.change in
  let all_better = if b.lower_is_better then n.hi < o.lo else n.lo > o.hi in
  let v =
    if spread o > b.bound || spread n > b.bound then if all_better then Better else Unresolved
    else if change > b.bound then Worse
    else if change < -.b.bound then Better
    else Same
  in
  (change, v)

let failed_share w =
  let f k = Json.to_float (Json.member k w) in
  f "failed" /. Float.max 1. (f "attempted")

(* Returns the number of regressions (0 means the comparison passes). *)
let run ~bounds old_path new_path =
  let bounds = load_bounds bounds in
  let workloads path = Json.to_assoc (Json.member "workloads" (Json.read_file path)) in
  let old_w = workloads old_path and new_w = workloads new_path in
  let regressions = ref 0 in
  Printf.printf "%-11s %-18s %12s %12s %8s  %s\n" "workload" "metric" "old" "new" "change" "verdict";
  List.iter
    (fun (w, ow) ->
      match List.assoc_opt w new_w with
      | None ->
          incr regressions;
          Printf.printf "%-11s missing from %s\n" w new_path
      | Some nw ->
          List.iter
            (fun (metric, b) ->
              let get ws = Json.member_opt metric (Json.member "end_to_end" ws) in
              match (get ow, get nw) with
              | None, _ -> ()
              | Some _, None ->
                  incr regressions;
                  Printf.printf "%-11s %-18s missing from %s\n" w metric new_path
              | Some om, Some nm ->
                  let o = side om and n = side nm in
                  let change, v = judge b o n in
                  if v = Worse then incr regressions;
                  Printf.printf "%-11s %-18s %12.6g %12.6g %+7.1f%%  %s\n" w metric o.value n.value
                    (100. *. change) (verdict_name v))
            bounds;
          let fo = failed_share ow and fn = failed_share nw in
          if fn > fo then begin
            incr regressions;
            Printf.printf "%-11s failed share rose from %g to %g\n" w fo fn
          end)
    old_w;
  Printf.printf "%d regression(s)\n%!" !regressions;
  !regressions
