type config = {
  unix_path : string option;
  tcp : (string * int) option; (* bind address, port (0 = ephemeral) *)
  max_conns : int;
  idle_timeout : float; (* seconds; <= 0 disables *)
  drain_grace : float; (* seconds to keep serving after a stop request *)
  domains : int; (* worker event loops; 1 = serve on the acceptor loop itself *)
  backend : Evloop.backend; (* only [Poll]; kept for e2ebench/daemon.ml *)
  data_dir : string option; (* root of per-tenant durable images; None = in-memory *)
  max_resident : int; (* LRU tenant cap per worker registry; <= 0 disables *)
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

(* One worker domain: an independent event loop exclusively owning its
   shard of tenants.  Everything on the per-frame hot path — [conns],
   [registry], [metrics], [read_buf], the [ev] registration state — is
   touched only by the owning domain, so serving needs no locks; the
   mutex guards only the cold handoff/drain mailbox, entered when the
   acceptor wakes us through the self-pipe. *)
type worker = {
  w_idx : int;
  ev : Evloop.t;
  registry : Session.registry;
  metrics : Metrics.t;
  conns : (Unix.file_descr, Conn.t) Hashtbl.t;
  mu : Mutex.t; (* guards [inbox] and [drain_req] *)
  inbox : Conn.t Queue.t; (* authenticated connections handed off by the acceptor *)
  mutable drain_req : bool;
  wake_r : Unix.file_descr; (* self-pipe: handoff and shutdown wakeups *)
  wake_w : Unix.file_descr;
  read_buf : bytes;
  mutable draining : bool;
  mutable drain_deadline : float;
  mutable w_running : bool;
}

type t = {
  cfg : config;
  ev : Evloop.t; (* the acceptor's loop; also worker 0's when inline *)
  workers : worker array;
  accept_metrics : Metrics.t; (* accept/reject counters; frame metrics are per-worker *)
  live : int Atomic.t; (* connections across the acceptor and every worker *)
  mutable listeners : Unix.file_descr list;
  pre : (Unix.file_descr, Conn.t) Hashtbl.t; (* pre-session conns, acceptor-owned *)
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  mutable tcp_port : int option;
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

let make_worker cfg w_idx =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let metrics = Metrics.create () in
  (* Evicting a tenant also folds away its metrics entry, so tenant
     churn cannot grow the per-namespace table without bound. *)
  let registry =
    Session.create
      ~config:
        {
          Session.default_config with
          data_dir = cfg.data_dir;
          max_resident = cfg.max_resident;
          on_evict = Metrics.evict_ns metrics;
        }
      ()
  in
  let ev = Evloop.create () in
  Evloop.set ev wake_r ~read:true ~write:false;
  {
    w_idx;
    ev;
    registry;
    metrics;
    conns = Hashtbl.create 32;
    mu = Mutex.create ();
    inbox = Queue.create ();
    drain_req = false;
    wake_r;
    wake_w;
    read_buf = Bytes.create 65536;
    draining = false;
    drain_deadline = infinity;
    w_running = true;
  }

let create cfg =
  if cfg.unix_path = None && cfg.tcp = None then
    invalid_arg "Daemon.create: need at least one of unix_path / tcp";
  if cfg.domains < 1 then invalid_arg "Daemon.create: domains must be >= 1";
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
  {
    cfg;
    ev;
    workers = Array.init cfg.domains (make_worker cfg);
    accept_metrics = Metrics.create ();
    live = Atomic.make 0;
    listeners = !listeners;
    pre = Hashtbl.create 32;
    stop_r;
    stop_w;
    tcp_port = !tcp_port;
    draining = false;
    drain_deadline = infinity;
    running = true;
    next_id = 0;
    read_buf = Bytes.create 65536;
  }

(* With one worker there is no domain to hand off to: the acceptor loop
   serves worker 0's connections itself, exactly like the single-loop
   daemon this design grew out of. *)
let inline t = Array.length t.workers = 1

let domains t = Array.length t.workers
let metrics t = t.accept_metrics
let worker_metrics t = Array.to_list (Array.map (fun w -> w.metrics) t.workers)
let registries t = Array.to_list (Array.map (fun w -> w.registry) t.workers)
let tcp_port t = t.tcp_port
let live_conns t = Atomic.get t.live
let shard_of t ns = Session.shard ~shards:(Array.length t.workers) ns

let ns_summary t ns = Metrics.ns_summary t.workers.(shard_of t ns).metrics ns

(* Preallocated one-byte signal payloads: stop/wake fire on every
   handoff and every drain broadcast, and allocating a fresh [Bytes] per
   signal was measurable churn on the handoff path.  Never mutated. *)
let stop_byte = Bytes.make 1 's'
let wake_byte = Bytes.make 1 'w'

(* Safe from a signal handler, another thread or another domain: one
   byte down the self-pipe wakes the acceptor loop, which drains the
   pipe and starts the graceful drain.  Only genuinely-expected errnos
   are swallowed — a full pipe (a wake byte is already pending) or a
   peer already gone.
   EBADF is *not* expected: the self-pipes live for the daemon's whole
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

(* A full pipe is fine: an unread wake byte is already pending, so the
   worker will wake regardless.  EBADF means the worker's pipe was
   closed under us — a lifecycle bug worth a log line, not silence. *)
let wake t (w : worker) =
  try ignore (write_retry w.wake_w wake_byte 0 1) with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
  | Unix.Unix_error (Unix.EBADF, _, _) ->
      logf t "wake: EBADF on worker %d's pipe — double-close or fd-reuse bug" w.w_idx

let drain_pipe fd =
  let b = Bytes.create 16 in
  try
    while read_retry fd b 0 16 > 0 do
      ()
    done
  with Unix.Unix_error _ -> ()

let w_ctx t (w : worker) =
  {
    Conn.registry = w.registry;
    metrics = w.metrics;
    live_sessions = (fun () -> Atomic.get t.live);
  }

let peer_string = function
  | Unix.ADDR_UNIX _ -> "unix"
  | Unix.ADDR_INET (a, p) -> Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p

(* {2 Connection service, shared by the acceptor (pre-session table) and
   every worker (its own shard table)}

   Each live connection is registered with its loop's {!Evloop} and its
   interest is re-derived after every service step: readable unless
   closing or past the output high-water mark, writable while output is
   pending.  [Evloop.set] only stores into the loop's registration
   arrays, so the steady-state hot path issues no registration
   syscalls. *)

let sync_interest ev conn =
  Evloop.set ev (Conn.fd conn)
    ~read:((not (Conn.closing conn)) && Conn.pending_output conn < out_hwm)
    ~write:(Conn.wants_write conn)

(* [registry] is the shard-local registry of worker-owned connections —
   closing one releases its tenant's pin (and may trigger LRU eviction).
   Pre-session connections (acceptor-owned) pass no registry: they never
   attached, so there is no pin to release. *)
let close_conn ?registry t ev conns metrics conn reason =
  let fd = Conn.fd conn in
  if Hashtbl.mem conns fd then begin
    Hashtbl.remove conns fd;
    Evloop.remove ev fd;
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Atomic.decr t.live;
    Metrics.on_close metrics;
    (match (registry, Conn.tenant conn) with
    | Some reg, Some tenant -> Session.release reg tenant
    | _ -> ());
    logf t "conn %s closed (%s)" (Conn.peer conn) reason
  end

let flush_conn ?registry t ev conns metrics conn =
  let rec go () =
    if Conn.wants_write conn then begin
      let buf, off, len = Conn.output conn in
      Metrics.sys_write metrics;
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
          close_conn ?registry t ev conns metrics conn "write EBADF"
      | exception Unix.Unix_error _ -> close_conn ?registry t ev conns metrics conn "write error"
    end
  in
  go ();
  if Conn.finished conn then close_conn ?registry t ev conns metrics conn "bye"
  else if Hashtbl.mem conns (Conn.fd conn) then sync_interest ev conn

let read_conn t (w : worker) ev conn ~now =
  let registry = w.registry in
  let rec go () =
    Metrics.sys_read w.metrics;
    match read_retry (Conn.fd conn) w.read_buf 0 (Bytes.length w.read_buf) with
    | 0 ->
        (* EOF — possibly mid-frame.  Only this connection dies; its
           tenant's state stays consistent because partial frames are
           never dispatched. *)
        close_conn ~registry t ev w.conns w.metrics conn "eof"
    | n ->
        Conn.on_bytes (w_ctx t w) conn w.read_buf ~len:n ~now;
        (* Drain to EAGAIN: responses accumulate in the connection's
           output buffer and flush as one write below. *)
        if Hashtbl.mem w.conns (Conn.fd conn) && not (Conn.closing conn) then go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EBADF, _, _) ->
        logf t "conn %s: EBADF on read — double-close or fd-reuse bug" (Conn.peer conn);
        close_conn ~registry t ev w.conns w.metrics conn "read EBADF"
    | exception Unix.Unix_error _ ->
        close_conn ~registry t ev w.conns w.metrics conn "read error"
  in
  (try go ()
   with e ->
     (* One connection's failure must never take the daemon down. *)
     logf t "conn %s: unexpected %s" (Conn.peer conn) (Printexc.to_string e);
     close_conn ~registry t ev w.conns w.metrics conn "internal error");
  if Hashtbl.mem w.conns (Conn.fd conn) then flush_conn ~registry t ev w.conns w.metrics conn

(* Adopt an authenticated connection into a worker's shard: bind its
   tenant in the shard-local registry, serve any frames pipelined behind
   the Hello, and flush the buffered handshake + Ok.  [flush_conn]
   registers the fd with the worker's loop via [sync_interest]. *)
let adopt t (w : worker) ev conn ~now =
  Hashtbl.replace w.conns (Conn.fd conn) conn;
  Conn.touch conn ~now;
  Conn.attach (w_ctx t w) conn;
  flush_conn ~registry:w.registry t ev w.conns w.metrics conn

let sweep_idle ?registry t ev conns metrics ~now =
  if t.cfg.idle_timeout > 0. then begin
    let idle =
      Hashtbl.fold
        (fun _ conn acc ->
          if now -. Conn.last_active conn > t.cfg.idle_timeout then conn :: acc else acc)
        conns []
    in
    List.iter (fun conn -> close_conn ?registry t ev conns metrics conn "idle timeout") idle
  end

let close_all ?registry t ev conns metrics reason =
  Hashtbl.fold (fun _ c acc -> c :: acc) conns []
  |> List.iter (fun c -> close_conn ?registry t ev conns metrics c reason)

(* {2 Readiness plumbing}

   The timeout is derived from the nearest deadline actually pending —
   the drain grace and/or the earliest idle-connection expiry — rather
   than a fixed polling interval: an idle daemon blocks in its
   readiness wait indefinitely (self-pipes deliver stop and handoff
   wakeups), and a loaded one wakes exactly when the next timeout is
   due. *)
let nearest_deadline t ~draining ~drain_deadline tbls =
  let d = if draining then drain_deadline else infinity in
  if t.cfg.idle_timeout <= 0. then d
  else
    List.fold_left
      (fun d tbl ->
        Hashtbl.fold
          (fun _ conn d -> Float.min d (Conn.last_active conn +. t.cfg.idle_timeout))
          tbl d)
      d tbls

let timeout_of_deadline d ~now = if d = infinity then -1. else Float.max 0. (d -. now)

(* {2 The acceptor} *)

let route t conn ns ~now =
  Hashtbl.remove t.pre (Conn.fd conn);
  Evloop.remove t.ev (Conn.fd conn);
  let w = t.workers.(shard_of t ns) in
  if inline t then adopt t w t.ev conn ~now
  else begin
    Mutex.protect w.mu (fun () -> Queue.push conn w.inbox);
    wake t w
  end

let read_pre t conn ~now =
  let rec go () =
    Metrics.sys_read t.accept_metrics;
    match read_retry (Conn.fd conn) t.read_buf 0 (Bytes.length t.read_buf) with
    | 0 -> close_conn t t.ev t.pre t.accept_metrics conn "eof"
    | n ->
        Conn.on_bytes_pre conn t.read_buf ~len:n ~now;
        if
          Hashtbl.mem t.pre (Conn.fd conn)
          && (not (Conn.closing conn))
          && Conn.routed_namespace conn = None
        then go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> close_conn t t.ev t.pre t.accept_metrics conn "read error"
  in
  (try go ()
   with e ->
     logf t "conn %s: unexpected %s" (Conn.peer conn) (Printexc.to_string e);
     close_conn t t.ev t.pre t.accept_metrics conn "internal error");
  if Hashtbl.mem t.pre (Conn.fd conn) then
    match Conn.routed_namespace conn with
    | Some ns when not (Conn.closing conn) ->
        logf t "conn %s -> namespace %S (worker %d)" (Conn.peer conn) ns (shard_of t ns);
        route t conn ns ~now
    | _ -> flush_conn t t.ev t.pre t.accept_metrics conn

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
          Metrics.on_reject t.accept_metrics;
          logf t "conn %s rejected (cap %d)" (peer_string addr) t.cfg.max_conns
        end
        else begin
          t.next_id <- t.next_id + 1;
          let conn = Conn.create ~id:t.next_id ~peer:(peer_string addr) ~now fd in
          Hashtbl.replace t.pre fd conn;
          Evloop.set t.ev fd ~read:true ~write:false;
          Atomic.incr t.live;
          Metrics.on_accept t.accept_metrics;
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
    if inline t then begin
      let w = t.workers.(0) in
      w.draining <- true;
      w.drain_deadline <- t.drain_deadline
    end
    else
      Array.iter
        (fun w ->
          Mutex.protect w.mu (fun () -> w.drain_req <- true);
          wake t w)
        t.workers;
    logf t "drain: stopped accepting; %d connection(s) live" (Atomic.get t.live)
  end

(* One round of the acceptor loop.  When [inline t], this is also worker
   0's loop: its connections are registered with the same {!Evloop} and
   served on this domain, making a 1-domain daemon behaviorally the
   familiar single-loop one.  Loop-level syscall counters (rounds,
   wakeups, frames-per-wake) are accounted to worker 0's metrics when
   inline — that is the loop actually serving frames — and to the
   acceptor's otherwise. *)
let acceptor_step t =
  let now = Unix.gettimeofday () in
  let w0 = t.workers.(0) in
  let loop_metrics = if inline t then w0.metrics else t.accept_metrics in
  sweep_idle t t.ev t.pre t.accept_metrics ~now;
  if inline t then sweep_idle ~registry:w0.registry t t.ev w0.conns w0.metrics ~now;
  let done_ =
    t.draining
    && (Atomic.get t.live = 0
       || now > t.drain_deadline
       || ((not (inline t)) && Hashtbl.length t.pre = 0))
  in
  if done_ then begin
    close_all t t.ev t.pre t.accept_metrics "drain deadline";
    if inline t then
      close_all ~registry:w0.registry t t.ev w0.conns w0.metrics "drain deadline";
    t.running <- false
  end
  else begin
    let tbls = if inline t then [ t.pre; w0.conns ] else [ t.pre ] in
    let deadline =
      nearest_deadline t ~draining:t.draining ~drain_deadline:t.drain_deadline tbls
    in
    Metrics.sys_round loop_metrics;
    let n = Evloop.wait t.ev ~timeout:(timeout_of_deadline deadline ~now) in
    if n > 0 then begin
      Metrics.sys_wakeup loop_metrics;
      let frames0 = Metrics.total_frames loop_metrics in
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
            match Hashtbl.find_opt t.pre fd with
            | Some conn -> read_pre t conn ~now
            | None -> (
                match if inline t then Hashtbl.find_opt w0.conns fd else None with
                | Some conn -> read_conn t w0 t.ev conn ~now
                | None -> ())
        end;
        if Evloop.ready_write t.ev i then
          match Hashtbl.find_opt t.pre fd with
          | Some conn -> flush_conn t t.ev t.pre t.accept_metrics conn
          | None -> (
              match if inline t then Hashtbl.find_opt w0.conns fd else None with
              | Some conn -> flush_conn ~registry:w0.registry t t.ev w0.conns w0.metrics conn
              | None -> ())
      done;
      Metrics.record_wake_frames loop_metrics (Metrics.total_frames loop_metrics - frames0)
    end
  end

(* {2 Worker loops (only spawned when domains > 1)} *)

let worker_mailbox t (w : worker) ~now =
  drain_pipe w.wake_r;
  let adopted, drain_req =
    Mutex.protect w.mu (fun () ->
        let xs = List.of_seq (Queue.to_seq w.inbox) in
        Queue.clear w.inbox;
        (xs, w.drain_req))
  in
  List.iter (fun conn -> adopt t w w.ev conn ~now) adopted;
  if drain_req && not w.draining then begin
    w.draining <- true;
    w.drain_deadline <- now +. t.cfg.drain_grace
  end

let worker_step t (w : worker) =
  let now = Unix.gettimeofday () in
  sweep_idle ~registry:w.registry t w.ev w.conns w.metrics ~now;
  if w.draining && (Hashtbl.length w.conns = 0 || now > w.drain_deadline) then begin
    close_all ~registry:w.registry t w.ev w.conns w.metrics "drain deadline";
    w.w_running <- false
  end
  else begin
    let deadline =
      nearest_deadline t ~draining:w.draining ~drain_deadline:w.drain_deadline [ w.conns ]
    in
    Metrics.sys_round w.metrics;
    let n = Evloop.wait w.ev ~timeout:(timeout_of_deadline deadline ~now) in
    if n > 0 then begin
      Metrics.sys_wakeup w.metrics;
      let frames0 = Metrics.total_frames w.metrics in
      let now = Unix.gettimeofday () in
      for i = 0 to n - 1 do
        let fd = Evloop.ready_fd w.ev i in
        if Evloop.ready_read w.ev i then begin
          if fd = w.wake_r then worker_mailbox t w ~now
          else
            match Hashtbl.find_opt w.conns fd with
            | Some conn -> read_conn t w w.ev conn ~now
            | None -> ()
        end;
        if Evloop.ready_write w.ev i then
          match Hashtbl.find_opt w.conns fd with
          | Some conn -> flush_conn ~registry:w.registry t w.ev w.conns w.metrics conn
          | None -> ()
      done;
      Metrics.record_wake_frames w.metrics (Metrics.total_frames w.metrics - frames0)
    end
  end

let worker_loop t (w : worker) =
  while w.w_running do
    worker_step t w
  done

let run t =
  logf t "serving (max %d connections, %d worker domain(s))" t.cfg.max_conns
    (Array.length t.workers);
  let spawned =
    if inline t then [||]
    else Array.map (fun w -> Domain.spawn (fun () -> worker_loop t w)) t.workers
  in
  while t.running do
    acceptor_step t
  done;
  Array.iter Domain.join spawned;
  (* Final cleanup: listeners are already gone if we drained; close
     whatever remains and remove the Unix socket path. *)
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) t.listeners;
  t.listeners <- [];
  close_all t t.ev t.pre t.accept_metrics "shutdown";
  Array.iter
    (fun w ->
      close_all ~registry:w.registry t w.ev w.conns w.metrics "shutdown";
      (* A connection routed after its worker passed the drain deadline
         never left the mailbox; with every domain joined and the
         acceptor loop done, nobody pushes anymore — close them here so
         neither the fd nor the live count leaks. *)
      Queue.iter
        (fun conn ->
          (try Unix.close (Conn.fd conn) with Unix.Unix_error _ -> ());
          Atomic.decr t.live)
        w.inbox;
      Queue.clear w.inbox;
      (* Persist every disk-backed tenant before the process goes away:
         a graceful restart then recovers bit-identical state. *)
      Session.shutdown w.registry;
      (try Unix.close w.wake_r with Unix.Unix_error _ -> ());
      try Unix.close w.wake_w with Unix.Unix_error _ -> ())
    t.workers;
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
