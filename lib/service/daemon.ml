type config = {
  unix_path : string option;
  tcp : (string * int) option; (* bind address, port (0 = ephemeral) *)
  max_conns : int;
  idle_timeout : float; (* seconds; <= 0 disables *)
  drain_grace : float; (* seconds to keep serving after a stop request *)
  domains : int; (* must be 1; kept for e2ebench/daemon.ml *)
  backend : Evloop.backend; (* only [Poll]; kept for e2ebench/daemon.ml *)
  data_dir : string option; (* root of per-tenant durable images; None = in-memory *)
  max_resident : int; (* LRU tenant cap, daemon-wide; <= 0 disables *)
  log : string -> unit;
}

let default_config =
  {
    unix_path = None;
    tcp = None;
    max_conns = 64;
    idle_timeout = 0.;
    drain_grace = 5.;
    domains = 1;
    backend = Evloop.Poll;
    data_dir = None;
    max_resident = 0;
    log = ignore;
  }

(* The one serving loop's state.  Everything on the per-frame hot path —
   [conns], the registry and metrics in [ctx], [read_buf], the [ev]
   registration state — is touched only by the domain running {!run};
   [live] is atomic because {!live_conns} may be read from any domain,
   and {!stop} touches only [stop_w]. *)
type t = {
  cfg : config;
  ev : Evloop.t;
  ctx : Conn.ctx; (* the one tenant registry and metrics *)
  conns : (Unix.file_descr, Conn.t) Hashtbl.t;
  live : int Atomic.t; (* [Hashtbl.length conns], readable from any domain *)
  mutable listeners : Unix.file_descr list;
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  tcp_port : int option;
  mutable draining : bool;
  mutable drain_deadline : float;
  mutable running : bool;
  mutable next_id : int;
  read_buf : bytes;
}

let rec retry_intr f =
  match f () with v -> v | exception Unix.Unix_error (Unix.EINTR, _, _) -> retry_intr f

(* EINTR-retrying syscall wrappers — the only sites in [lib/service]
   outside {!Evloop} allowed to touch raw Unix I/O (rules R5
   eintr-discipline and R10 event-loop-hygiene).  Only EINTR is
   retried: in this non-blocking event loop EAGAIN/EWOULDBLOCK mean
   "come back on the next readiness round" and stay with the caller. *)
let read_retry fd buf off len = retry_intr (fun () -> Unix.read fd buf off len)
[@@lint.allow "eintr-discipline"]

let write_retry fd buf off len = retry_intr (fun () -> Unix.write fd buf off len)
[@@lint.allow "eintr-discipline"]

let accept_retry ?cloexec fd = retry_intr (fun () -> Unix.accept ?cloexec fd)
[@@lint.allow "eintr-discipline"]

let logf t fmt = Printf.ksprintf t.cfg.log fmt

(* Reading a connection whose responses the client refuses to drain would
   grow the output buffer without bound; past this high-water mark we
   stop reading from it until the client catches up. *)
let out_hwm = 8 * 1024 * 1024

let listen_unix path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 128;
  Unix.set_nonblock fd;
  fd

let listen_tcp addr port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string addr, port));
  Unix.listen fd 128;
  Unix.set_nonblock fd;
  let bound_port =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> port
  in
  (fd, bound_port)


let create cfg =
  if cfg.unix_path = None && cfg.tcp = None then
    invalid_arg "Daemon.create: need at least one of unix_path / tcp";
  if cfg.domains <> 1 then invalid_arg "Daemon.create: domains must be 1";
  (* Refuses a cap without a data dir, before anything is bound. *)
  let registry =
    Session.create
      ~config:
        { Session.default_config with data_dir = cfg.data_dir; max_resident = cfg.max_resident }
      ()
  in
  let listeners = ref [] in
  let tcp_port = ref None in
  (match cfg.unix_path with
  | Some path -> listeners := listen_unix path :: !listeners
  | None -> ());
  (match cfg.tcp with
  | Some (addr, port) ->
      let fd, bound = listen_tcp addr port in
      tcp_port := Some bound;
      listeners := fd :: !listeners
  | None -> ());
  let stop_r, stop_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock stop_r;
  Unix.set_nonblock stop_w;
  (match cfg.data_dir with Some dir -> Store.Fsio.mkdirs dir | None -> ());
  let ev = Evloop.create () in
  Evloop.set ev stop_r ~read:true ~write:false;
  List.iter (fun fd -> Evloop.set ev fd ~read:true ~write:false) !listeners;
  let live = Atomic.make 0 in
  {
    cfg;
    ev;
    ctx =
      {
        Conn.registry;
        metrics = Metrics.create ();
        live_sessions = (fun () -> Atomic.get live);
        log = cfg.log;
      };
    conns = Hashtbl.create 32;
    live;
    listeners = !listeners;
    stop_r;
    stop_w;
    tcp_port = !tcp_port;
    draining = false;
    drain_deadline = infinity;
    running = true;
    next_id = 0;
    read_buf = Bytes.create 65536;
  }

let tcp_port t = t.tcp_port
let live_conns t = Atomic.get t.live

(* Preallocated one-byte signal payload.  Never mutated. *)
let stop_byte = Bytes.make 1 's'

(* Safe from a signal handler, another thread or another domain: one
   byte down the self-pipe wakes the serving loop, which drains the
   pipe and starts the graceful drain.  Only genuinely-expected errnos
   are swallowed — a full pipe (a stop byte is already pending) or a
   peer already gone.
   EBADF is *not* expected: the self-pipe lives for the daemon's whole
   run, so a bad descriptor here means a double-close or fd-reuse bug
   and is logged instead of masked. *)
let stop t =
  try ignore (write_retry t.stop_w stop_byte 0 1) with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
  | Unix.Unix_error (Unix.EBADF, _, _) ->
      t.cfg.log "stop: EBADF on the stop pipe — double-close or fd-reuse bug"

let install_stop_signals t =
  let handler = Sys.Signal_handle (fun _ -> stop t) in
  (try Sys.set_signal Sys.sigterm handler with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigint handler with Invalid_argument _ -> ())

let drain_pipe fd =
  let b = Bytes.create 16 in
  try
    while read_retry fd b 0 16 > 0 do
      ()
    done
  with Unix.Unix_error _ -> ()

let peer_string = function
  | Unix.ADDR_UNIX _ -> "unix"
  | Unix.ADDR_INET (a, p) -> Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p

(* {2 Connection service}

   Each live connection is registered with the loop's {!Evloop} and its
   interest is re-derived after every service step: readable unless
   closing or past the output high-water mark, writable while output is
   pending.  [Evloop.set] only stores into the loop's registration
   arrays, so the steady-state hot path issues no registration
   syscalls. *)

let sync_interest t conn =
  Evloop.set t.ev (Conn.fd conn)
    ~read:((not (Conn.closing conn)) && Conn.pending_output conn < out_hwm)
    ~write:(Conn.wants_write conn)

(* Closing a connection that reached its session releases its tenant's
   pin (and may trigger LRU eviction). *)
let close_conn t conn reason =
  let fd = Conn.fd conn in
  if Hashtbl.mem t.conns fd then begin
    Hashtbl.remove t.conns fd;
    Evloop.remove t.ev fd;
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Atomic.decr t.live;
    Option.iter (Session.release t.ctx.registry) (Conn.tenant conn);
    logf t "conn %s closed (%s)" (Conn.peer conn) reason
  end

let flush_conn t conn =
  let rec go () =
    if Conn.wants_write conn then begin
      let buf, off, len = Conn.output conn in
      Metrics.sys_write t.ctx.metrics;
      match write_retry (Conn.fd conn) buf off len with
      | n ->
          Conn.wrote conn n;
          go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EBADF, _, _) ->
          (* Writing to a closed descriptor is a daemon bug (double
             close, fd reuse), not client behavior — log it loudly
             rather than letting it pass as a generic write error. *)
          logf t "conn %s: EBADF on write — double-close or fd-reuse bug" (Conn.peer conn);
          close_conn t conn "write EBADF"
      | exception Unix.Unix_error _ -> close_conn t conn "write error"
    end
  in
  go ();
  if Conn.finished conn then close_conn t conn "bye"
  else if Hashtbl.mem t.conns (Conn.fd conn) then sync_interest t conn

let read_conn t conn ~now =
  let rec go () =
    Metrics.sys_read t.ctx.metrics;
    match read_retry (Conn.fd conn) t.read_buf 0 (Bytes.length t.read_buf) with
    | 0 ->
        (* EOF — possibly mid-frame.  Only this connection dies; its
           tenant's state stays consistent because partial frames are
           never dispatched. *)
        close_conn t conn "eof"
    | n ->
        Conn.on_bytes t.ctx conn t.read_buf ~len:n ~now;
        (* Drain to EAGAIN: responses accumulate in the connection's
           output buffer and flush as one write below. *)
        if Hashtbl.mem t.conns (Conn.fd conn) && not (Conn.closing conn) then go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EBADF, _, _) ->
        logf t "conn %s: EBADF on read — double-close or fd-reuse bug" (Conn.peer conn);
        close_conn t conn "read EBADF"
    | exception Unix.Unix_error _ -> close_conn t conn "read error"
  in
  (try go ()
   with e ->
     (* One connection's failure must never take the daemon down. *)
     logf t "conn %s: unexpected %s" (Conn.peer conn) (Printexc.to_string e);
     close_conn t conn "internal error");
  if Hashtbl.mem t.conns (Conn.fd conn) then flush_conn t conn

let sweep_idle t ~now =
  if t.cfg.idle_timeout > 0. then begin
    let idle =
      Hashtbl.fold
        (fun _ conn acc ->
          if now -. Conn.last_active conn > t.cfg.idle_timeout then conn :: acc else acc)
        t.conns []
    in
    List.iter (fun conn -> close_conn t conn "idle timeout") idle
  end

let close_all t reason =
  Hashtbl.fold (fun _ c acc -> c :: acc) t.conns []
  |> List.iter (fun c -> close_conn t c reason)

(* {2 The loop}

   The readiness timeout is derived from the nearest deadline actually
   pending — the drain grace and/or the earliest idle-connection
   expiry — rather than a fixed polling interval: an idle daemon blocks
   in its readiness wait indefinitely (the self-pipe delivers stop
   requests), and a loaded one wakes exactly when the next timeout is
   due. *)
let nearest_deadline t =
  let d = if t.draining then t.drain_deadline else infinity in
  if t.cfg.idle_timeout <= 0. then d
  else
    Hashtbl.fold
      (fun _ conn d -> Float.min d (Conn.last_active conn +. t.cfg.idle_timeout))
      t.conns d

let timeout_of_deadline d ~now = if d = infinity then -1. else Float.max 0. (d -. now)

let accept_all t lfd ~now =
  let rec go () =
    match accept_retry ~cloexec:true lfd with
    | fd, addr ->
        Unix.set_nonblock fd;
        (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
        if Atomic.get t.live >= t.cfg.max_conns then begin
          (* Over the cap: turn the connection away before it can speak.
             The client sees EOF during its version handshake. *)
          (try Unix.close fd with Unix.Unix_error _ -> ());
          logf t "conn %s rejected (cap %d)" (peer_string addr) t.cfg.max_conns
        end
        else begin
          t.next_id <- t.next_id + 1;
          let conn = Conn.create ~id:t.next_id ~peer:(peer_string addr) ~now fd in
          Hashtbl.replace t.conns fd conn;
          Evloop.set t.ev fd ~read:true ~write:false;
          Atomic.incr t.live;
          logf t "conn %s accepted (#%d, %d live)" (peer_string addr) t.next_id
            (Atomic.get t.live)
        end;
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

let start_drain t ~now =
  if not t.draining then begin
    t.draining <- true;
    t.drain_deadline <- now +. t.cfg.drain_grace;
    List.iter
      (fun fd ->
        Evloop.remove t.ev fd;
        try Unix.close fd with Unix.Unix_error _ -> ())
      t.listeners;
    t.listeners <- [];
    logf t "drain: stopped accepting; %d connection(s) live" (Atomic.get t.live)
  end

(* One round of the loop: sweep idle connections, finish a completed
   drain, or wait for readiness and serve every ready descriptor. *)
let step t =
  let now = Unix.gettimeofday () in
  let m = t.ctx.metrics in
  sweep_idle t ~now;
  if t.draining && (Atomic.get t.live = 0 || now > t.drain_deadline) then begin
    close_all t "drain deadline";
    t.running <- false
  end
  else begin
    Metrics.sys_round m;
    let n = Evloop.wait t.ev ~timeout:(timeout_of_deadline (nearest_deadline t) ~now) in
    if n > 0 then begin
      Metrics.sys_wakeup m;
      let now = Unix.gettimeofday () in
      for i = 0 to n - 1 do
        let fd = Evloop.ready_fd t.ev i in
        if Evloop.ready_read t.ev i then begin
          if fd = t.stop_r then begin
            drain_pipe t.stop_r;
            start_drain t ~now
          end
          else if List.mem fd t.listeners then accept_all t fd ~now
          else
            match Hashtbl.find_opt t.conns fd with
            | Some conn -> read_conn t conn ~now
            | None -> ()
        end;
        if Evloop.ready_write t.ev i then
          match Hashtbl.find_opt t.conns fd with
          | Some conn -> flush_conn t conn
          | None -> ()
      done
    end
  end

let run t =
  logf t "serving (max %d connections)" t.cfg.max_conns;
  while t.running do
    step t
  done;
  (* Final cleanup: listeners are already gone if we drained; close
     whatever remains and remove the Unix socket path. *)
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) t.listeners;
  t.listeners <- [];
  close_all t "shutdown";
  (* Persist every disk-backed tenant before the process goes away: a
     graceful restart then recovers bit-identical state. *)
  Session.shutdown t.ctx.registry;
  (try Unix.close t.stop_r with Unix.Unix_error _ -> ());
  (try Unix.close t.stop_w with Unix.Unix_error _ -> ());
  (match t.cfg.unix_path with
  | Some path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | None -> ());
  logf t "stopped"

let with_local ?(config = default_config) f =
  let path = Filename.temp_file "sfdd-daemon" ".sock" in
  Sys.remove path;
  let t = create { config with unix_path = Some path } in
  let d = Domain.spawn (fun () -> run t) in
  Fun.protect
    ~finally:(fun () ->
      stop t;
      Domain.join d)
    (fun () -> f path t)
