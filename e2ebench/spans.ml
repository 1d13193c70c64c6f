(* In-memory span recorder for the traced runs.

   A span covers one call into a layer's public function, timed from
   the benchmark's side: name, layer, start, end, the enclosing span and
   the run (repetition) it belongs to, plus integer attributes measured
   around the call (blocks, round trips, bytes, |X|).  Spans stay in
   memory while the run is measured and are written out when it ends;
   a span's self time is its duration minus the part of it that its
   direct children cover (calls are sequential, so children never
   overlap). *)

type span = {
  id : int;
  name : string;
  layer : string;
  run : int;
  parent : int;  (** id of the enclosing span, -1 at the top *)
  start : float;
  stop : float;
  attrs : (string * int) list;
}

type t = {
  origin : float;
  mutable current_run : int;
  mutable next : int;
  mutable stack : int list;
  mutable spans : span list;  (** newest first *)
}

let now = Unix.gettimeofday
let create () = { origin = now (); current_run = 0; next = 0; stack = []; spans = [] }
let set_run t r = t.current_run <- r

(* [with_ t ~layer ~name f] runs [f] inside a span.  [attrs] is taken
   after the clock stops, so the work of computing it is charged to the
   parent, not to this layer. *)
let with_ t ~layer ~name ?(attrs = fun _ -> []) f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let start = now () in
  let finish result_attrs =
    let stop = now () in
    t.stack <- List.tl t.stack;
    t.spans <- { id; name; layer; run = t.current_run; parent; start; stop; attrs = result_attrs () } :: t.spans
  in
  match f () with
  | v ->
      finish (fun () -> attrs v);
      v
  | exception e ->
      finish (fun () -> []);
      raise e

let spans t = List.rev t.spans
let duration s = s.stop -. s.start
let attr s k = Option.value ~default:0 (List.assoc_opt k s.attrs)

(* [self_times t] maps each span id to its self time. *)
let self_times t =
  let covered = Hashtbl.create 256 in
  List.iter
    (fun c ->
      if c.parent >= 0 then
        Hashtbl.replace covered c.parent
          (duration c +. Option.value ~default:0. (Hashtbl.find_opt covered c.parent)))
    t.spans;
  fun s -> duration s -. Option.value ~default:0. (Hashtbl.find_opt covered s.id)

let named t name = List.filter (fun s -> s.name = name) (spans t)
let total_duration l = List.fold_left (fun acc s -> acc +. duration s) 0. l
let sum_attr l k = List.fold_left (fun acc s -> acc + attr s k) 0 l

let to_json t =
  let self_time = self_times t in
  let us x = Json.Num (Float.round ((x -. t.origin) *. 1e7) /. 10.) in
  Json.Arr
    (List.map
       (fun s ->
         Json.Obj
           ([
              ("id", Json.Num (float_of_int s.id));
              ("name", Json.Str s.name);
              ("layer", Json.Str s.layer);
              ("run", Json.Num (float_of_int s.run));
              ("parent", Json.Num (float_of_int s.parent));
              ("start_us", us s.start);
              ("end_us", us s.stop);
              ("self_us", Json.Num (Float.round (self_time s *. 1e7) /. 10.));
            ]
           @ List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) s.attrs))
       (spans t))
