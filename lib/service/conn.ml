open Servsim
module Handler = Store.Handler

type phase =
  | Handshake (* awaiting the client's version byte *)
  | Await_hello (* version agreed; first request must be Hello *)
  | Serving of Session.tenant
  | Closing (* flush pending output, then close *)

(* A connection that never completes its [Hello] may not buffer input
   without bound: past this many pending bytes in the handshake stage
   the connection is refused.  A [Hello] frame is at most 70 bytes
   (1 tag + 4 length + 64-byte namespace cap), so any legitimate client
   fits with room for a pipelined burst behind it; a client opening
   with a jumbo non-Hello frame is cut off here instead of at the
   64 MiB frame cap. *)
let pre_hello_max = 4096

(* Pending response bytes live in a growable flat buffer with a head
   offset: the daemon writes [buf[lo..hi)] straight from {!output}
   without copying (the old [Buffer.to_bytes] cost one full copy per
   write attempt), and all frames decoded in one wakeup coalesce here
   into a single flush. *)
type outbuf = { mutable buf : bytes; mutable lo : int; mutable hi : int }

type t = {
  fd : Unix.file_descr;
  id : int;
  peer : string;
  decoder : Frame_decoder.t;
  out : outbuf;
  out_sink : Wire.sink; (* cached closures appending to [out] *)
  mutable phase : phase;
  mutable bound : Session.tenant option;
      (* set when [Hello] binds the tenant and kept through [Closing], so
         the daemon can release the tenant's pin when the connection
         finally closes *)
  mutable last_active : float;
}

type ctx = {
  registry : Session.registry;
  metrics : Metrics.t;
  live_sessions : unit -> int;
  log : string -> unit;
}

let out_reserve o n =
  let len = o.hi - o.lo in
  if o.hi + n > Bytes.length o.buf then
    if len + n <= Bytes.length o.buf && o.lo > 0 then begin
      (* Enough room once the flushed head is dropped: slide in place. *)
      Bytes.blit o.buf o.lo o.buf 0 len;
      o.lo <- 0;
      o.hi <- len
    end
    else begin
      let cap = ref (max 512 (Bytes.length o.buf)) in
      while len + n > !cap do
        cap := !cap * 2
      done;
      let buf = Bytes.create !cap in
      Bytes.blit o.buf o.lo buf 0 len;
      o.buf <- buf;
      o.lo <- 0;
      o.hi <- len
    end

let out_add_char o c =
  out_reserve o 1;
  Bytes.set o.buf o.hi c;
  o.hi <- o.hi + 1

let out_add_string o s =
  let n = String.length s in
  out_reserve o n;
  Bytes.blit_string s 0 o.buf o.hi n;
  o.hi <- o.hi + n

let out_add_u32 o v =
  out_reserve o 4;
  Bytes.set_int32_le o.buf o.hi (Int32.of_int v);
  o.hi <- o.hi + 4

let create ~id ~peer ~now fd =
  let out = { buf = Bytes.create 512; lo = 0; hi = 0 } in
  {
    fd;
    id;
    peer;
    decoder = Frame_decoder.create ();
    out;
    out_sink =
      { Wire.put_char = out_add_char out; put_str = out_add_string out; put_u32 = out_add_u32 out };
    phase = Handshake;
    bound = None;
    last_active = now;
  }

let fd t = t.fd
let peer t = t.peer
let last_active t = t.last_active

let pending_output t = t.out.hi - t.out.lo
let wants_write t = pending_output t > 0
let closing t = match t.phase with Closing -> true | _ -> false

(* Fully flushed and told to close: the daemon may drop the fd. *)
let finished t = closing t && not (wants_write t)

let tenant t = t.bound

let respond t resp =
  Wire.write_response_sink t.out_sink resp;
  t.out.hi - t.out.lo

(* Answer one final [Error] and close: only this connection is lost. *)
let refuse t msg =
  ignore (respond t (Wire.Error msg));
  t.phase <- Closing

(* The session's own figures ({!Handler.stats}) overlaid with what only
   the serving loop measures. *)
let build_stats ctx (tenant : Session.tenant) =
  let p50, p95, p99 = Metrics.Reservoir.percentiles tenant.Session.latency in
  let sys = Metrics.syscalls ctx.metrics in
  let us s = min 0xFFFFFFFF (int_of_float (s *. 1e6)) in
  Wire.Stats_reply
    {
      (Handler.stats tenant.Session.handler) with
      uptime_us = Int64.of_float (Metrics.uptime_s ctx.metrics *. 1e6);
      sessions = ctx.live_sessions ();
      p50_us = us p50;
      p95_us = us p95;
      p99_us = us p99;
      loop_reads = sys.Metrics.reads;
      loop_writes = sys.Metrics.writes;
      loop_wakeups = sys.Metrics.wakeups;
      loop_rounds = sys.Metrics.rounds;
      dyn_sessions = Session.dyn_resident ctx.registry;
    }

let handle_request ctx t tenant req ~req_bytes =
  let h = tenant.Session.handler in
  let counted = Handler.counted req in
  if counted then Handler.account_request h ~bytes:req_bytes;
  let t0 = Unix.gettimeofday () in
  let resp =
    match req with
    | Wire.Hello _ -> Wire.Error "already in a session"
    | Wire.Stats -> build_stats ctx tenant
    | Wire.Bye ->
        t.phase <- Closing;
        Wire.Ok
    | req -> ( try Handler.handle h req with Wire.Protocol_error msg -> Wire.Error msg)
  in
  let before = pending_output t in
  let after = respond t resp in
  if counted then begin
    (* Account the response, then journal: an auto-snapshot taken inside
       the append must hold this frame whole.  Journaling after dispatch
       records a request the handler rejected mid-way exactly as served:
       replay reproduces the same dispatch, response and accounting. *)
    Handler.account_response h ~bytes:(after - before);
    Session.journal ctx.registry tenant req;
    Metrics.Reservoir.add tenant.Session.latency (Unix.gettimeofday () -. t0)
  end

let rec drain_requests ctx t =
  match t.phase with
  | Closing | Handshake | Await_hello -> ()
  | Serving tenant -> (
      match Frame_decoder.next t.decoder with
      | None -> ()
      | Some (req, req_bytes) ->
          handle_request ctx t tenant req ~req_bytes;
          drain_requests ctx t
      | exception Wire.Protocol_error msg ->
          (* This connection's stream is beyond resync.  Report once and
             close it — only it; every other connection keeps its own
             decoder and session untouched. *)
          refuse t ("unrecoverable: " ^ msg))

(* The first frame must be [Hello ns]: bind the tenant (creating,
   or rehydrating it from its durable image) and answer [Ok].  A tenant
   whose image is damaged beyond torn-tail recovery is refused on this
   connection alone; every other namespace keeps being served. *)
let on_hello ctx t =
  match Frame_decoder.next t.decoder with
  | None ->
      if Frame_decoder.pending_bytes t.decoder > pre_hello_max then
        refuse t "handshake: first frame too large"
  | Some (Wire.Hello "", _) -> refuse t "empty namespace"
  | Some (Wire.Hello ns, _) -> (
      match Session.attach ctx.registry ns with
      | tenant ->
          t.bound <- Some tenant;
          t.phase <- Serving tenant;
          ignore (respond t Wire.Ok);
          ctx.log (Printf.sprintf "conn %s -> namespace %S" t.peer ns)
      | exception Store.Tenant.Corrupt msg ->
          ctx.log (Printf.sprintf "conn %s: namespace %S refused: %s" t.peer ns msg);
          refuse t ("tenant image corrupt: " ^ msg))
  | Some (_, _) -> refuse t "expected Hello to establish a session"
  | exception Wire.Protocol_error msg -> refuse t ("unrecoverable: " ^ msg)

(* A chunk of bytes arrived from the socket: the version byte first,
   then the [Hello], then request frames — including any the client
   pipelined behind its [Hello] in the same chunk. *)
let on_bytes ctx t bytes ~len ~now =
  t.last_active <- now;
  let off =
    match t.phase with
    | Handshake when len > 0 ->
        (* Always answer with our own version byte so a mismatched
           client can report the disagreement, then hang up on
           mismatch. *)
        out_add_char t.out (Char.chr Wire.protocol_version);
        t.phase <-
          (if Char.code (Bytes.get bytes 0) = Wire.protocol_version then Await_hello
           else Closing);
        1
    | _ -> 0
  in
  if (not (closing t)) && len > off then
    Frame_decoder.feed t.decoder bytes ~off ~len:(len - off);
  (match t.phase with Await_hello -> on_hello ctx t | _ -> ());
  drain_requests ctx t

(* The daemon flushed [n] bytes of pending output. *)
let wrote t n =
  t.out.lo <- t.out.lo + n;
  if t.out.lo >= t.out.hi then begin
    t.out.lo <- 0;
    t.out.hi <- 0
  end

let output t = (t.out.buf, t.out.lo, t.out.hi - t.out.lo)
