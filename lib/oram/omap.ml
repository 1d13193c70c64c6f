(* AVL tree over an integer-addressed ORAM.

   Per operation, nodes are read through a transient client cache (each
   distinct node costs one ORAM access), mutations are buffered and
   flushed as ORAM writes, and the access count is padded with dummy
   accesses to a fixed per-operation budget, so the server observes
   (capacity, op count) and nothing else. *)

type backing = {
  read : int -> string option;
  write : int -> string -> unit;
  remove : int -> unit;
  dummy : unit -> unit;
  client_bytes : unit -> int;
  destroy : unit -> unit;
}

let path_oram_backing ~name ~capacity ~node_len server cipher rand =
  let o =
    Path_oram.setup ~name { capacity; key_len = 8; payload_len = node_len } server cipher rand
  in
  {
    read = (fun id -> Path_oram.read o ~key:(Relation.Codec.encode_int id));
    write = (fun id v -> Path_oram.write o ~key:(Relation.Codec.encode_int id) v);
    remove = (fun id -> Path_oram.remove o ~key:(Relation.Codec.encode_int id));
    dummy = (fun () -> Path_oram.dummy_access o);
    client_bytes = (fun () -> Path_oram.client_state_bytes o);
    destroy = (fun () -> Path_oram.destroy o);
  }

let recursive_backing ~name ~capacity ~node_len server cipher rand =
  let o =
    Recursive_path_oram.setup ~name
      { capacity; payload_len = node_len; fanout = 16; top_cutoff = 16 }
      server cipher rand
  in
  {
    read = (fun id -> Recursive_path_oram.read o ~key:id);
    write = (fun id v -> Recursive_path_oram.write o ~key:id v);
    remove = (fun id -> Recursive_path_oram.remove o ~key:id);
    dummy =
      (fun () ->
        (* A read of a fixed slot is physically indistinguishable from any
           other access. *)
        ignore (Recursive_path_oram.read o ~key:0));
    client_bytes = (fun () -> Recursive_path_oram.client_state_bytes o);
    destroy = (fun () -> Recursive_path_oram.destroy o);
  }

type config = {
  capacity : int;
  key_len : int;
  value_len : int;
}

let node_len cfg = cfg.key_len + cfg.value_len + 24

type node = {
  key : string;
  value : string;
  left : int;
  right : int;
  height : int;
}

let nil = -1

type t = {
  cfg : config;
  backing : backing;
  mutable root : int;
  mutable size : int;
  mutable next_id : int;
  mutable free : int list;
  (* Per-operation transient state: *)
  cache : (int, node) Hashtbl.t;
  dirty : (int, unit) Hashtbl.t;
  removed : (int, unit) Hashtbl.t;
  mutable op_accesses : int;
}

let create cfg backing =
  {
    cfg;
    backing;
    root = nil;
    size = 0;
    next_id = 0;
    free = [];
    cache = Hashtbl.create 64;
    dirty = Hashtbl.create 64;
    removed = Hashtbl.create 16;
    op_accesses = 0;
  }

let encode_node t nd =
  let b = Bytes.create (node_len t.cfg) in
  Bytes.blit_string nd.key 0 b 0 t.cfg.key_len;
  Bytes.blit_string nd.value 0 b t.cfg.key_len t.cfg.value_len;
  let base = t.cfg.key_len + t.cfg.value_len in
  Relation.Codec.put_int64 b base (Int64.of_int nd.left);
  Relation.Codec.put_int64 b (base + 8) (Int64.of_int nd.right);
  Relation.Codec.put_int64 b (base + 16) (Int64.of_int nd.height);
  Bytes.to_string b

let decode_node t s =
  let base = t.cfg.key_len + t.cfg.value_len in
  {
    key = String.sub s 0 t.cfg.key_len;
    value = String.sub s t.cfg.key_len t.cfg.value_len;
    left = Int64.to_int (Relation.Codec.get_int64 s base);
    right = Int64.to_int (Relation.Codec.get_int64 s (base + 8));
    height = Int64.to_int (Relation.Codec.get_int64 s (base + 16));
  }

let read_node t id =
  match Hashtbl.find_opt t.cache id with
  | Some nd -> nd
  | None -> (
      t.op_accesses <- t.op_accesses + 1;
      match t.backing.read id with
      | Some s ->
          let nd = decode_node t s in
          Hashtbl.replace t.cache id nd;
          nd
      | None -> failwith (Printf.sprintf "Omap: dangling node id %d" id))

let write_node t id nd =
  Hashtbl.replace t.cache id nd;
  Hashtbl.replace t.dirty id ();
  Hashtbl.remove t.removed id

let alloc_node t nd =
  let id =
    match t.free with
    | id :: rest ->
        t.free <- rest;
        id
    | [] ->
        let id = t.next_id in
        if id >= t.cfg.capacity then failwith "Omap: capacity exceeded";
        t.next_id <- id + 1;
        id
  in
  write_node t id nd;
  id

let free_node t id =
  Hashtbl.remove t.cache id;
  Hashtbl.remove t.dirty id;
  Hashtbl.replace t.removed id ();
  t.free <- id :: t.free

let height t id = if id = nil then 0 else (read_node t id).height

let with_height t nd =
  { nd with height = 1 + max (height t nd.left) (height t nd.right) }

let balance_factor t nd = height t nd.left - height t nd.right

(* Rotations return the id of the new subtree root. *)
let rotate_right t id =
  let nd = read_node t id in
  let lid = nd.left in
  let l = read_node t lid in
  let nd' = with_height t { nd with left = l.right } in
  write_node t id nd';
  let l' = with_height t { l with right = id } in
  write_node t lid l';
  lid

let rotate_left t id =
  let nd = read_node t id in
  let rid = nd.right in
  let r = read_node t rid in
  let nd' = with_height t { nd with right = r.left } in
  write_node t id nd';
  let r' = with_height t { r with left = id } in
  write_node t rid r';
  rid

let rebalance t id =
  let nd = with_height t (read_node t id) in
  write_node t id nd;
  let bf = balance_factor t nd in
  if bf > 1 then begin
    let l = read_node t nd.left in
    if height t l.left >= height t l.right then rotate_right t id
    else begin
      let new_left = rotate_left t nd.left in
      write_node t id { nd with left = new_left };
      rotate_right t id
    end
  end
  else if bf < -1 then begin
    let r = read_node t nd.right in
    if height t r.right >= height t r.left then rotate_left t id
    else begin
      let new_right = rotate_right t nd.right in
      write_node t id { nd with right = new_right };
      rotate_left t id
    end
  end
  else id

(* Fixed access budgets: the AVL height bound is 1.44·log2(n+2). *)
let max_depth t =
  let rec log2 acc v = if v <= 1 then acc else log2 (acc + 1) (v / 2) in
  (144 * (log2 0 (t.cfg.capacity + 2) + 2) / 100) + 2

let find_budget t = max_depth t + 1
let insert_budget t = (4 * max_depth t) + 8
let delete_budget t = (6 * max_depth t) + 16

let begin_op t = t.op_accesses <- 0

let finish_op t ~budget =
  (* Flush buffered writes and removals, then pad to the fixed budget. *)
  Hashtbl.iter
    (fun id () ->
      t.op_accesses <- t.op_accesses + 1;
      t.backing.write id (encode_node t (Hashtbl.find t.cache id)))
    t.dirty;
  Hashtbl.iter
    (fun id () ->
      t.op_accesses <- t.op_accesses + 1;
      t.backing.remove id)
    t.removed;
  if t.op_accesses > budget then
    failwith
      (Printf.sprintf "Omap: access budget exceeded (%d > %d)" t.op_accesses budget);
  while t.op_accesses < budget do
    t.backing.dummy ();
    t.op_accesses <- t.op_accesses + 1
  done;
  Hashtbl.reset t.cache;
  Hashtbl.reset t.dirty;
  Hashtbl.reset t.removed

let check_key t key =
  if String.length key <> t.cfg.key_len then invalid_arg "Omap: bad key length"

let find t key =
  check_key t key;
  begin_op t;
  let rec go id =
    if id = nil then None
    else
      let nd = read_node t id in
      let c =
        String.compare key
          (nd.key
          [@lint.declassify
            "client-side AVL navigation; every node touch is an oblivious backing-ORAM \
             access and the op is padded to a fixed budget by finish_op"])
      in
      if c = 0 then Some nd.value else if c < 0 then go nd.left else go nd.right
  in
  let res = go t.root in
  finish_op t ~budget:(find_budget t);
  res

let insert t key value =
  check_key t key;
  if String.length value <> t.cfg.value_len then invalid_arg "Omap: bad value length";
  begin_op t;
  let rec go id =
    if id = nil then begin
      t.size <- t.size + 1;
      alloc_node t { key; value; left = nil; right = nil; height = 1 }
    end
    else
      let nd = read_node t id in
      let c =
        String.compare key
          (nd.key
          [@lint.declassify
            "client-side AVL navigation; every node touch is an oblivious backing-ORAM \
             access and the op is padded to a fixed budget by finish_op"])
      in
      if c = 0 then begin
        write_node t id { nd with value };
        id
      end
      else if c < 0 then begin
        let new_left = go nd.left in
        write_node t id { (read_node t id) with left = new_left };
        rebalance t id
      end
      else begin
        let new_right = go nd.right in
        write_node t id { (read_node t id) with right = new_right };
        rebalance t id
      end
  in
  t.root <- go t.root;
  finish_op t ~budget:(insert_budget t)

let delete t key =
  check_key t key;
  begin_op t;
  let rec min_node id =
    let nd = read_node t id in
    if nd.left = nil then nd else min_node nd.left
  in
  let rec go id key =
    if id = nil then nil
    else
      let nd = read_node t id in
      let c =
        String.compare key
          (nd.key
          [@lint.declassify
            "client-side AVL navigation; every node touch is an oblivious backing-ORAM \
             access and the op is padded to a fixed budget by finish_op"])
      in
      if c < 0 then begin
        let new_left = go nd.left key in
        write_node t id { (read_node t id) with left = new_left };
        rebalance t id
      end
      else if c > 0 then begin
        let new_right = go nd.right key in
        write_node t id { (read_node t id) with right = new_right };
        rebalance t id
      end
      else begin
        t.size <- t.size - 1;
        if nd.left = nil then begin
          free_node t id;
          nd.right
        end
        else if nd.right = nil then begin
          free_node t id;
          nd.left
        end
        else begin
          let succ = min_node nd.right in
          (* Replace this node's contents with the successor's, then
             delete the successor from the right subtree.  The recursive
             deletion re-increments nothing: compensate the size. *)
          t.size <- t.size + 1;
          let new_right = go nd.right succ.key in
          write_node t id
            { (read_node t id) with key = succ.key; value = succ.value; right = new_right };
          rebalance t id
        end
      end
  in
  t.root <- go t.root key;
  finish_op t ~budget:(delete_budget t)

let size t = t.size

let client_state_bytes t = t.backing.client_bytes () + 24 + (8 * List.length t.free)

let check_invariants t =
  let ok = ref true in
  let rec walk id lo hi =
    if id = nil then 0
    else begin
      let nd =
        (match t.backing.read id with
         | Some s -> decode_node t s
         | None ->
             ok := false;
             { key = ""; value = ""; left = nil; right = nil; height = 0 })
        [@lint.declassify
          "client-local invariant checker (tests only): it walks the whole tree \
           through the oblivious backing ORAM"]
      in
      let ndkey =
        (nd.key
        [@lint.declassify
          "client-local invariant checker (tests only): it walks the whole tree \
           through the oblivious backing ORAM"])
      in
      (match lo with Some l when String.compare ndkey l <= 0 -> ok := false | _ -> ());
      (match hi with Some h when String.compare ndkey h >= 0 -> ok := false | _ -> ());
      let hl = walk nd.left lo (Some ndkey) in
      let hr = walk nd.right (Some ndkey) hi in
      if abs (hl - hr) > 1 then ok := false;
      if nd.height <> 1 + max hl hr then ok := false;
      1 + max hl hr
    end
  in
  ignore (walk t.root None None);
  (* Size check. *)
  let rec count id =
    if id = nil then 0
    else
      match t.backing.read id with
      | Some s ->
          let nd = decode_node t s in
          1 + count nd.left + count nd.right
      | None -> 0
  in
  !ok && count t.root = t.size

let to_sorted_list t =
  let rec go id acc =
    if id = nil then acc
    else
      match t.backing.read id with
      | Some s ->
          let nd = decode_node t s in
          go nd.left ((nd.key, nd.value) :: go nd.right acc)
      | None -> acc
  in
  go t.root []

let destroy t = t.backing.destroy ()
