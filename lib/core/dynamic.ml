open Relation

type t = {
  session : Session.t;
  m : int;
  capacity : int;
  handles : (Attrset.t, Ex_oram_method.handle) Hashtbl.t;
  mutable order : Attrset.t list;
      (* every maintained set, generators before supersets: the lattice
         plan, then each set [ensure] materialises *)
  fds : Fdbase.Fd.t list;
  live_ids : (int, unit) Hashtbl.t;
  mutable next_id : int;
}

let session t = t.session
let fds t = t.fds
let live_records t = Hashtbl.length t.live_ids

let start ?seed ?capacity ?max_lhs table =
  let n = Table.rows table and m = Table.cols table in
  let capacity = max 16 (Option.value ~default:(4 * n) capacity) in
  let session = Session.create ?seed ~n ~m () in
  let db = Enc_db.outsource session table in
  let handles = Hashtbl.create 64 in
  let register h =
    Hashtbl.replace handles (Ex_oram_method.attrs h) h;
    (h, Ex_oram_method.cardinality h)
  in
  let oracle =
    {
      Fdbase.Lattice.single = (fun col -> register (Ex_oram_method.single db ~capacity col));
      combine = (fun x h1 h2 -> register (Ex_oram_method.combine session ~capacity x h1 h2));
      release = (fun _ -> ()); (* structures are retained for maintenance *)
    }
  in
  let result =
    Fdbase.Lattice.discover ~m ~n ?max_lhs ~check:(Set_level.check session) oracle
  in
  let live_ids = Hashtbl.create (2 * n) in
  for id = 0 to n - 1 do
    Hashtbl.replace live_ids id ()
  done;
  {
    session;
    m;
    capacity;
    handles;
    order = result.Fdbase.Lattice.plan;
    fds = result.Fdbase.Lattice.fds;
    live_ids;
    next_id = n;
  }

let cardinality t x =
  if Attrset.is_empty x then Some (min 1 (live_records t))
  else Option.map Ex_oram_method.cardinality (Hashtbl.find_opt t.handles x)

let retained t = List.map (Hashtbl.find t.handles) t.order

(* One frame schedule over every retained set: max|X| + 1 frames
   (Ex_oram_method.insert). *)
let insert t values =
  if Array.length values <> t.m then invalid_arg "Dynamic.insert: arity mismatch";
  if live_records t >= t.capacity then invalid_arg "Dynamic.insert: capacity exceeded";
  let id = t.next_id in
  Log.debug (fun f -> f "dynamic insert: id=%d (%d sets to update)" id (List.length t.order));
  Ex_oram_method.insert (retained t) ~row:id values;
  t.next_id <- id + 1;
  Hashtbl.replace t.live_ids id ();
  id

(* Deletions for distinct attribute sets are independent (§V-C), so every
   set's Algorithm 5 shares the same three frames (Ex_oram_method.delete). *)
let delete t ~id =
  Log.debug (fun f -> f "dynamic delete: id=%d" id);
  Ex_oram_method.delete (retained t) ~row:id;
  Hashtbl.remove t.live_ids id

(* Materialise π_X for a set outside the retained lattice (needed when a
   key-pruned FD must be re-checked after its LHS stopped being a key). *)
let rec ensure t x =
  match Hashtbl.find_opt t.handles x with
  | Some h -> h
  | None ->
      if Attrset.cardinal x < 2 then
        invalid_arg "Dynamic.ensure: single attributes are always materialised";
      let x1, x2 = Attrset.choose_two_generators x in
      let gen1 = ensure t x1 and gen2 = ensure t x2 in
      let h =
        Ex_oram_method.combine t.session ~capacity:t.capacity
          ~rows:(List.rev (Hashtbl.fold (fun id () acc -> id :: acc) t.live_ids []))
          x gen1 gen2
      in
      Hashtbl.replace t.handles x h;
      (* Maintained from now on, after its generators. *)
      t.order <- t.order @ [ x ];
      h

let revalidate t =
  List.map
    (fun fd ->
      let { Fdbase.Fd.lhs; rhs } = fd in
      let x = Attrset.add lhs rhs in
      let lhs_card =
        match cardinality t lhs with
        | Some c -> c
        | None -> Ex_oram_method.cardinality (ensure t lhs)
      in
      (* Superkey LHS still determines everything: skip materialising X. *)
      if lhs_card = live_records t && lhs_card > 0 then (fd, true)
      else
        let x_card =
          match cardinality t x with
          | Some c -> c
          | None -> Ex_oram_method.cardinality (ensure t x)
        in
        (fd, Set_level.check t.session lhs_card x_card))
    t.fds

let release t =
  Hashtbl.iter (fun _ h -> Ex_oram_method.release h) t.handles;
  Hashtbl.reset t.handles
