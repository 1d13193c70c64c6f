(* Metrics as the benchmark reports them, and the bookkeeping of one
   workload run: how many operations were attempted, which failed, and
   why. *)

type metric = {
  name : string;
  unit_ : string;
  value : float;  (** the median for timings, the exact figure for counts *)
  samples : float array;
}

(* Linear interpolation between order statistics. *)
let quantile samples q =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Measure.quantile: no samples";
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float pos in
  if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median samples = quantile samples 0.5

let timing name unit_ samples = { name; unit_; value = median samples; samples }
let exact name unit_ v = { name; unit_; value = v; samples = [| v |] }
let count name unit_ n = exact name unit_ (float_of_int n)

let ratio a b = if b = 0. then 0. else a /. b

let to_json m =
  let num f = Json.Num f in
  Json.Obj
    ([ ("value", num m.value); ("unit", Json.Str m.unit_) ]
    @
    if Array.length m.samples > 1 then
      [
        ("median", num (median m.samples));
        ("p25", num (quantile m.samples 0.25));
        ("p75", num (quantile m.samples 0.75));
        ("min", num (quantile m.samples 0.));
        ("max", num (quantile m.samples 1.));
        ("n", num (float_of_int (Array.length m.samples)));
      ]
    else [])

type outcome = {
  workload : string;
  repetitions : int;
  attempted : int;
  failed : int;
  failures : string list;  (** one line per failed check *)
  end_to_end : metric list;
  per_layer : metric list;
  spans : Spans.t option;  (** traced runs only *)
}

(* Correctness bookkeeping: an operation is attempted once and fails if
   any of its checks fails. *)
type checks = { mutable attempted : int; mutable failed : int; mutable failures : string list }

let checks () = { attempted = 0; failed = 0; failures = [] }

(* [op ck f] runs one checked operation; [f] returns the list of
   failed checks (empty when every output was right).  An exception is
   a failed operation too, and is re-raised: the run cannot go on
   without the operation's result. *)
let op ck f =
  ck.attempted <- ck.attempted + 1;
  match f () with
  | [] -> ()
  | bad ->
      ck.failed <- ck.failed + 1;
      ck.failures <- ck.failures @ bad
  | exception e ->
      ck.failed <- ck.failed + 1;
      ck.failures <- ck.failures @ [ Printexc.to_string e ];
      raise e

let expect what cond = if cond then [] else [ what ]

let outcome ck ~workload ~repetitions ?spans ~end_to_end ~per_layer () =
  {
    workload;
    repetitions;
    attempted = ck.attempted;
    failed = ck.failed;
    failures = ck.failures;
    end_to_end;
    per_layer;
    spans;
  }

let metrics_json l = Json.Obj (List.map (fun m -> (m.name, to_json m)) l)

let print_lines o =
  List.iter
    (fun m -> Printf.printf "%s %s %s %s\n" o.workload m.name (Json.number m.value) m.unit_)
    (o.end_to_end @ o.per_layer);
  List.iter (fun f -> Printf.printf "%s FAILED %s\n" o.workload f) o.failures;
  flush stdout
