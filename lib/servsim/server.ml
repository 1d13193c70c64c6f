type t = {
  trace : Trace.t;
  cost : Cost.t;
  stores : (string, Block_store.t) Hashtbl.t;
  remote : Remote.t option;
  mutable bytes : int;
}

let create ?keep_events ?remote () =
  {
    trace = Trace.create ?keep_events ();
    cost = Cost.create ();
    stores = Hashtbl.create 32;
    remote;
    bytes = 0;
  }

let trace t = t.trace
let cost t = t.cost
let remote t = t.remote

let sync_cost t = Cost.set_server_bytes t.cost t.bytes

let create_store t name ~slots =
  if Hashtbl.mem t.stores name then
    invalid_arg (Printf.sprintf "Server.create_store: store %s already exists" name);
  if slots < 0 || slots > Wire.max_list_len then
    invalid_arg
      (Printf.sprintf "Server.create_store: slot count %d outside [0, %d]" slots Wire.max_list_len);
  (match t.remote with
  | Some conn -> ignore (Remote.call conn (Wire.Create_store (name, slots)))
  | None -> ());
  let on_resize delta =
    t.bytes <- t.bytes + delta;
    sync_cost t
  in
  let store = Block_store.create ~name ~slots ~trace:t.trace ~on_resize ?remote:t.remote t.cost in
  Hashtbl.replace t.stores name store;
  (* One wire frame in remote mode; charged identically in the local sim. *)
  if Trace.enabled t.trace then Cost.round_trip t.cost;
  store

let find_store t name =
  match Hashtbl.find_opt t.stores name with
  | Some s -> s
  | None -> raise Not_found

let drop_store t name =
  match Hashtbl.find_opt t.stores name with
  | None -> ()
  | Some s ->
      (match t.remote with
      | Some conn -> ignore (Remote.call conn (Wire.Drop_store name))
      | None -> ());
      t.bytes <- t.bytes - Block_store.size_bytes s;
      sync_cost t;
      if Trace.enabled t.trace then Cost.round_trip t.cost;
      Hashtbl.remove t.stores name

let total_bytes t = t.bytes

let store_names t = Hashtbl.fold (fun k _ acc -> k :: acc) t.stores [] |> List.sort compare
