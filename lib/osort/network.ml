type comparator = { i : int; j : int; up : bool }

type t = {
  n : int;
  stages : comparator array array;
}

type component = { slots : int array; comparators : comparator array }
type pass = { first : int; count : int; components : component array }

let is_pow2 n = n > 0 && n land (n - 1) = 0

let ceil_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let bitonic n =
  if not (is_pow2 n) then invalid_arg "Network.bitonic: n must be a positive power of two";
  let stages = ref [] in
  let k = ref 2 in
  while !k <= n do
    let j = ref (!k / 2) in
    while !j > 0 do
      let stage = ref [] in
      for i = 0 to n - 1 do
        let l = i lxor !j in
        if l > i then begin
          let up = i land !k = 0 in
          stage := { i; j = l; up } :: !stage
        end
      done;
      stages := Array.of_list (List.rev !stage) :: !stages;
      j := !j / 2
    done;
    k := !k * 2
  done;
  { n; stages = Array.of_list (List.rev !stages) }

let odd_even_merge n =
  if not (is_pow2 n) then invalid_arg "Network.odd_even_merge: n must be a positive power of two";
  let stages = ref [] in
  let p = ref 1 in
  while !p < n do
    let k = ref !p in
    while !k >= 1 do
      let stage = ref [] in
      let j = ref (!k mod !p) in
      while !j <= n - 1 - !k do
        let upper = min (!k - 1) (n - 1 - !j - !k) in
        for i = 0 to upper do
          if (i + !j) / (!p * 2) = (i + !j + !k) / (!p * 2) then
            stage := { i = i + !j; j = i + !j + !k; up = true } :: !stage
        done;
        j := !j + (2 * !k)
      done;
      if !stage <> [] then stages := Array.of_list (List.rev !stage) :: !stages;
      k := !k / 2
    done;
    p := !p * 2
  done;
  { n; stages = Array.of_list (List.rev !stages) }

(* Union-find over slots, its roots carrying their component's size. *)
let rec root parent x =
  let p = parent.(x) in
  if p = x then x
  else begin
    let r = root parent p in
    parent.(x) <- r;
    r
  end

(* Merge the components of [stage] into [parent]/[size]; false as soon
   as one grows past [block] slots. *)
let merge_within parent size ~block stage =
  Array.for_all
    (fun { i; j; _ } ->
      let ri = root parent i and rj = root parent j in
      let r =
        if ri = rj then ri
        else begin
          let big, small = if size.(ri) >= size.(rj) then (ri, rj) else (rj, ri) in
          parent.(small) <- big;
          size.(big) <- size.(big) + size.(small);
          big
        end
      in
      size.(r) <= block)
    stage

(* The components of the stages [stages], ordered by their smallest
   slot: slots ascending, comparators in stage order.  [parent] is the
   union-find over exactly these stages; untouched slots are left out. *)
let components_of n parent stages =
  let id = Array.make n (-1) and count = ref 0 in
  let slots = Array.make n [] and comps = Array.make n [] in
  let touched = Array.make n false in
  Array.iter (Array.iter (fun { i; j; _ } -> touched.(i) <- true; touched.(j) <- true)) stages;
  for x = 0 to n - 1 do
    if touched.(x) then begin
      let r = root parent x in
      if id.(r) < 0 then begin
        id.(r) <- !count;
        incr count
      end;
      slots.(id.(r)) <- x :: slots.(id.(r))
    end
  done;
  Array.iter
    (Array.iter (fun c ->
         let k = id.(root parent c.i) in
         comps.(k) <- c :: comps.(k)))
    stages;
  Array.init !count (fun k ->
      {
        slots = Array.of_list (List.rev slots.(k));
        comparators = Array.of_list (List.rev comps.(k));
      })

let passes t ~block =
  if block < 2 then invalid_arg "Network.passes: block must be >= 2";
  let n = t.n in
  let fresh () = (Array.init n Fun.id, Array.make n 1) in
  let out = ref [] in
  let close first last parent =
    let count = last - first in
    out := { first; count; components = components_of n parent (Array.sub t.stages first count) }
           :: !out
  in
  (* Stages [first, s) are merged into [parent]/[size]; try stage [s]
     on a copy, and start a new pass at it if it does not fit. *)
  let rec grow first s (parent, size) =
    if s = Array.length t.stages then (if s > first then close first s parent)
    else begin
      let parent' = Array.copy parent and size' = Array.copy size in
      if merge_within parent' size' ~block t.stages.(s) then grow first (s + 1) (parent', size')
      else if s = first then invalid_arg "Network.passes: a stage exceeds the block"
      else begin
        close first s parent;
        grow s s (fresh ())
      end
    end
  in
  grow 0 0 (fresh ());
  Array.of_list (List.rev !out)

let comparator_count t = Array.fold_left (fun acc s -> acc + Array.length s) 0 t.stages
let stage_count t = Array.length t.stages

let apply_01 t input =
  let a = Array.copy input in
  Array.iter
    (fun stage ->
      Array.iter
        (fun { i; j; up } ->
          let lo, hi = if a.(i) <= a.(j) then (a.(i), a.(j)) else (a.(j), a.(i)) in
          if up then begin
            a.(i) <- lo;
            a.(j) <- hi
          end
          else begin
            a.(i) <- hi;
            a.(j) <- lo
          end)
        stage)
    t.stages;
  a

let sorts_all_01 t =
  let n = t.n in
  if n > 20 then invalid_arg "Network.sorts_all_01: n too large for exhaustive check";
  let sorted a =
    let ok = ref true in
    for i = 0 to n - 2 do
      if a.(i) > a.(i + 1) then ok := false
    done;
    !ok
  in
  let all_ok = ref true in
  for mask = 0 to (1 lsl n) - 1 do
    let input = Array.init n (fun i -> (mask lsr i) land 1) in
    if not (sorted (apply_01 t input)) then all_ok := false
  done;
  !all_ok

let check_disjoint_stages t =
  Array.for_all
    (fun stage ->
      let seen = Hashtbl.create 64 in
      Array.for_all
        (fun { i; j; _ } ->
          if Hashtbl.mem seen i || Hashtbl.mem seen j then false
          else begin
            Hashtbl.replace seen i ();
            Hashtbl.replace seen j ();
            true
          end)
        stage)
    t.stages
