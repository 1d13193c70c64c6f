type tenant = {
  namespace : string;
  handler : Store.Handler.state;
  persist : Store.Tenant.t option;
  mutable pins : int; (* live connections currently serving this tenant *)
  mutable stamp : int; (* LRU clock value at last activity *)
  latency : Metrics.Reservoir.t;
}

type config = {
  data_dir : string option;
  max_resident : int;
  snapshot_every : int;
}

let default_config = { data_dir = None; max_resident = 0; snapshot_every = 1024 }

type registry = {
  cfg : config;
  tbl : (string, tenant) Hashtbl.t;
  mutable clock : int; (* monotonic LRU clock; bumped on attach/journal *)
}

let create ?(config = default_config) () =
  if config.max_resident > 0 && config.data_dir = None then
    invalid_arg "Session.create: max_resident needs a data_dir to evict tenants to";
  { cfg = config; tbl = Hashtbl.create 16; clock = 0 }

let touch reg tenant =
  reg.clock <- reg.clock + 1;
  tenant.stamp <- reg.clock

let persist_out tenant =
  (match tenant.persist with
  | None -> ()
  | Some p ->
      Store.Tenant.snapshot p tenant.handler;
      Store.Tenant.close p);
  (* Free the dynamic engine's retained ORAM structures eagerly: the
     handler state is about to be dropped, and rehydration rebuilds the
     session from the update history just snapshotted. *)
  Store.Handler.release_dyn tenant.handler

(* Evict the least-recently-active unpinned tenant.  Only reached when a
   data dir is configured, so every candidate has a persistent image to
   land in; a tenant with live connections is never evicted (its state
   would fork from its journal). *)
let evict_one reg =
  let victim =
    Hashtbl.fold
      (fun _ t best ->
        if t.pins > 0 then best
        else
          match best with Some b when b.stamp <= t.stamp -> best | _ -> Some t)
      reg.tbl None
  in
  match victim with
  | None -> false
  | Some t ->
      persist_out t;
      Hashtbl.remove reg.tbl t.namespace;
      true

let enforce_cap reg =
  if reg.cfg.data_dir <> None && reg.cfg.max_resident > 0 then begin
    let continue_ = ref true in
    while !continue_ && Hashtbl.length reg.tbl > reg.cfg.max_resident do
      continue_ := evict_one reg
    done
  end

let attach reg namespace =
  let tenant =
    match Hashtbl.find_opt reg.tbl namespace with
    | Some tenant -> tenant
    | None ->
        let persist, handler =
          match reg.cfg.data_dir with
          | None -> (None, Store.Handler.create_state ())
          | Some data_dir ->
              let p, h =
                Store.Tenant.open_ ~data_dir ~snapshot_every:reg.cfg.snapshot_every namespace
              in
              (Some p, h)
        in
        let tenant =
          { namespace; handler; persist; pins = 0; stamp = 0; latency = Metrics.Reservoir.create () }
        in
        Hashtbl.replace reg.tbl namespace tenant;
        tenant
  in
  tenant.pins <- tenant.pins + 1;
  touch reg tenant;
  enforce_cap reg;
  tenant

let release reg tenant =
  tenant.pins <- max 0 (tenant.pins - 1);
  enforce_cap reg

let journal reg tenant req =
  touch reg tenant;
  match tenant.persist with
  | None -> ()
  | Some p -> Store.Tenant.journal p ~state:tenant.handler req

let shutdown reg =
  Hashtbl.iter (fun _ tenant -> persist_out tenant) reg.tbl;
  Hashtbl.reset reg.tbl

let find reg namespace = Hashtbl.find_opt reg.tbl namespace
let count reg = Hashtbl.length reg.tbl

let dyn_resident reg =
  Hashtbl.fold (fun _ t n -> if Store.Handler.has_dyn t.handler then n + 1 else n) reg.tbl 0
let namespaces reg = Hashtbl.fold (fun k _ acc -> k :: acc) reg.tbl [] |> List.sort compare
