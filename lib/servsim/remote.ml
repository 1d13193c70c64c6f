type t = {
  ic : in_channel;
  oc : out_channel;
  depth : int; (* max in-flight frames; 1 = strict request/response *)
  mutable frames : int;
  mutable closed : bool;
  (* Pipelining state.  Responses arrive strictly in request order (the
     daemon serves one connection's frames sequentially), so matching
     needs only counts: [puts] counts fire-and-forget [Scatter_put]s,
     each acknowledged with [Ok]; [manual] counts frames sent with the
     raw {!send}/{!recv} pair, whose responses the caller collects
     itself. *)
  mutable puts : int; (* outstanding async [Scatter_put] acknowledgements *)
  mutable manual : int;
  mutable unflushed : bool;
}

let default_namespace = "default"

let default_depth = 1

let rec retry_intr f =
  match f () with v -> v | exception Unix.Unix_error (Unix.EINTR, _, _) -> retry_intr f

(* A vanished server surfaces as [End_of_file] (clean close) or as
   [Sys_error] (reset, broken pipe; SIGPIPE is ignored): every read and
   flush below maps both to the typed wire error. *)
let on_io_error ~closed f =
  try f () with End_of_file | Sys_error _ -> raise (Wire.Protocol_error closed)

let connect_fd ?(namespace = default_namespace) ?(depth = default_depth) fd =
  if depth < 1 then invalid_arg "Remote.connect: depth must be >= 1";
  (* A dead peer must surface as an exception on the next call, not as a
     process-killing SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let t =
    { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd; depth;
      frames = 0; closed = false; puts = 0; manual = 0; unflushed = false }
  in
  (* Version handshake: both sides announce; a stale client against a new
     server (or vice versa) fails here with a clear error instead of a
     "bad request tag" mid-session. *)
  let closed = "server closed the connection during the version handshake" in
  (match
     on_io_error ~closed (fun () ->
         Wire.write_hello t.oc;
         Wire.read_hello t.ic)
   with
  | v when v = Wire.protocol_version -> ()
  | v ->
      raise
        (Wire.Protocol_error
           (Printf.sprintf "protocol version mismatch: client speaks %d, server speaks %d"
              Wire.protocol_version v)));
  (* Session establishment: bind the connection to a store namespace.
     Connection setup like the version byte, so not counted in [frames]. *)
  let closed = "server closed the connection during session setup" in
  (match
     on_io_error ~closed (fun () ->
         Wire.write_request t.oc (Wire.Hello namespace);
         Wire.read_response t.ic)
   with
  | Wire.Ok -> ()
  | Wire.Error msg -> raise (Wire.Protocol_error ("session rejected: " ^ msg))
  | _ -> raise (Wire.Protocol_error "unexpected response to Hello"));
  t

let connect_unix ?namespace ?depth path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try retry_intr (fun () -> Unix.connect fd (Unix.ADDR_UNIX path))
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  connect_fd ?namespace ?depth fd

let connect_tcp ?namespace ?depth ~host ~port () =
  let addr =
    match Unix.inet_addr_of_string host with
    | a -> a
    | exception Failure _ -> (
        match Unix.gethostbyname host with
        | { Unix.h_addr_list = [||]; _ } -> raise (Wire.Protocol_error ("no address for " ^ host))
        | h -> h.Unix.h_addr_list.(0)
        | exception Not_found -> raise (Wire.Protocol_error ("unknown host " ^ host)))
  in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     retry_intr (fun () -> Unix.connect fd (Unix.ADDR_INET (addr, port)));
     (* One small synchronous frame per round trip: Nagle only adds
        latency here. *)
     (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ())
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  connect_fd ?namespace ?depth fd

let frames t = t.frames
let depth t = t.depth
let inflight t = t.puts + t.manual

(* Buffered send: frames queue in the channel buffer and hit the wire
   in one write when something needs a response — that batching, plus
   the server draining the whole burst in one wakeup, is where
   pipelining's syscall savings come from. *)
let send_nf t req =
  Wire.write_request_sink (Wire.channel_sink t.oc) req;
  t.frames <- t.frames + 1;
  t.unflushed <- true

let flush_out t =
  if t.unflushed then begin
    on_io_error ~closed:"server closed the connection" (fun () -> flush t.oc);
    t.unflushed <- false
  end

(* Flush what is buffered, then read the next response in order. *)
let read_response t ~closed =
  flush_out t;
  on_io_error ~closed (fun () -> Wire.read_response t.ic)

(* Collect the acknowledgement of the oldest outstanding async put. *)
let drain_one t =
  t.puts <- t.puts - 1;
  match read_response t ~closed:"server closed with async Scatter_put in flight" with
  | Wire.Ok -> ()
  | Wire.Error msg -> raise (Wire.Protocol_error ("Scatter_put: " ^ msg))
  | _ -> raise (Wire.Protocol_error "unexpected response to async Scatter_put")

let drain t =
  while t.puts > 0 do
    drain_one t
  done

let require_no_manual t op =
  if t.manual > 0 then
    raise
      (Wire.Protocol_error
         (op ^ ": " ^ string_of_int t.manual ^ " raw send(s) outstanding; recv them first"))

let call t req =
  if t.closed then raise (Wire.Protocol_error "connection closed");
  require_no_manual t "call";
  (* Order matters: every queued response precedes ours on the wire. *)
  drain t;
  send_nf t req;
  match read_response t ~closed:"server closed the connection" with
  | Wire.Error msg -> raise (Wire.Protocol_error msg)
  | resp -> resp

let send t req =
  if t.closed then raise (Wire.Protocol_error "connection closed");
  drain t;
  if t.manual >= t.depth then
    raise (Wire.Protocol_error "send: pipeline full; recv a response first");
  send_nf t req;
  t.manual <- t.manual + 1

let recv t =
  if t.manual = 0 then raise (Wire.Protocol_error "recv: no request in flight");
  let resp = read_response t ~closed:"server closed with a raw send in flight" in
  t.manual <- t.manual - 1;
  resp

let pipelined t reqs =
  if t.closed then raise (Wire.Protocol_error "connection closed");
  require_no_manual t "pipelined";
  drain t;
  let reqs = Array.of_list reqs in
  let n = Array.length reqs in
  let resps = Array.make n Wire.Ok in
  let sent = ref 0 and recvd = ref 0 in
  while !recvd < n do
    while !sent < n && !sent - !recvd < t.depth do
      send_nf t reqs.(!sent);
      incr sent
    done;
    resps.(!recvd) <- read_response t ~closed:"server closed mid-pipeline";
    incr recvd
  done;
  Array.to_list resps

let multi_get t ~store idxs =
  if idxs = [] then []
  else
    match call t (Wire.Multi_get (store, idxs)) with
    | Wire.Values vs ->
        if List.compare_lengths vs idxs <> 0 then
          raise (Wire.Protocol_error "Multi_get: value count does not match index count");
        vs
    | _ -> raise (Wire.Protocol_error "unexpected response to Multi_get")

let scatter_put t groups =
  if List.for_all (fun (_, items) -> items = []) groups then ()
  else
    match call t (Wire.Scatter_put groups) with
    | Wire.Ok -> ()
    | _ -> raise (Wire.Protocol_error "unexpected response to Scatter_put")

let scatter_put_async t groups =
  if not (List.for_all (fun (_, items) -> items = []) groups) then begin
    if t.closed then raise (Wire.Protocol_error "connection closed");
    if t.depth <= 1 then scatter_put t groups
    else begin
      require_no_manual t "scatter_put_async";
      (* Bounded window: collect the oldest acknowledgement once the
         pipeline is full, so a slow server applies backpressure instead
         of the client buffering without limit. *)
      while t.puts >= t.depth do
        drain_one t
      done;
      send_nf t (Wire.Scatter_put groups);
      t.puts <- t.puts + 1
    end
  end

let begin_dynamic t ?(capacity = 0) ?(max_lhs = 0) ~seed ~cols rows =
  match call t (Wire.Begin_dynamic { seed; capacity; max_lhs; cols; rows }) with
  | Wire.Fds_reply r -> r
  | _ -> raise (Wire.Protocol_error "unexpected response to Begin_dynamic")

let insert_row t cells =
  match call t (Wire.Insert_row cells) with
  | Wire.Row_id id -> id
  | _ -> raise (Wire.Protocol_error "unexpected response to Insert_row")

let insert_rows t rows =
  if rows = [] then []
  else
    List.map
      (function
        | Wire.Row_id id -> id
        | Wire.Error msg -> raise (Wire.Protocol_error ("Insert_row: " ^ msg))
        | _ -> raise (Wire.Protocol_error "unexpected response to Insert_row"))
      (pipelined t (List.map (fun cells -> Wire.Insert_row cells) rows))

let delete_row t ~id =
  match call t (Wire.Delete_row id) with
  | Wire.Ok -> ()
  | _ -> raise (Wire.Protocol_error "unexpected response to Delete_row")

let revalidate t =
  match call t Wire.Revalidate with
  | Wire.Fds_reply r -> r
  | _ -> raise (Wire.Protocol_error "unexpected response to Revalidate")

let ping t =
  match call t Wire.Ping with
  | Wire.Pong -> ()
  | _ -> raise (Wire.Protocol_error "unexpected response to Ping")

let stats t =
  match call t Wire.Stats with
  | Wire.Stats_reply s -> s
  | _ -> raise (Wire.Protocol_error "unexpected response to Stats")

let server_digests t =
  match call t Wire.Digest with
  | Wire.Digests { full; shape; count } -> (full, shape, count)
  | _ -> raise (Wire.Protocol_error "unexpected response to Digest")

let digests t ~full ~shape ~count =
  let f, s, c = server_digests t in
  Int64.equal f full && Int64.equal s shape && c = count

let close t =
  if not t.closed then begin
    ((try ignore (call t Wire.Bye) with _ -> ())
    [@lint.allow "exception-hygiene"] (* best-effort goodbye: server may be gone *));
    t.closed <- true;
    (* ic shares the fd; closing oc closes it. *)
    close_out_noerr t.oc
  end
