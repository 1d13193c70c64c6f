type t = {
  ic : in_channel;
  oc : out_channel;
  frame : Buffer.t; (* one request, encoded whole before it reaches [oc] *)
  depth : int; (* max in-flight frames; 1 = strict request/response *)
  mutable frames : int;
  mutable closed : bool;
  (* Pipelining state.  Responses arrive strictly in request order (the
     daemon serves one connection's frames sequentially), so matching
     needs only a count of the frames sent with {!send} whose responses
     {!recv} has not collected yet. *)
  mutable inflight : int;
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
    { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd;
      frame = Buffer.create 256; depth;
      frames = 0; closed = false; inflight = 0; unflushed = false }
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
let inflight t = t.inflight

(* Buffered send: frames queue in the channel buffer and hit the wire
   in one write when something needs a response — that batching, plus
   the server draining the whole burst in one wakeup, is where
   pipelining's syscall savings come from.  A request is encoded whole
   into [t.frame] first: one whose encoding raises (a negative index, an
   over-long list) leaves nothing in the channel to corrupt the next. *)
let send_nf t req =
  Buffer.clear t.frame;
  Wire.write_request_sink (Wire.buffer_sink t.frame) req;
  on_io_error ~closed:"server closed the connection" (fun () ->
      Buffer.output_buffer t.oc t.frame);
  (* Keep the buffer for small frames only: a bulk upload's would
     otherwise stay allocated for the connection's life. *)
  if Buffer.length t.frame > 65536 then Buffer.reset t.frame;
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

let require_idle t op =
  if t.inflight > 0 then
    raise
      (Wire.Protocol_error
         (op ^ ": " ^ string_of_int t.inflight ^ " raw send(s) outstanding; recv them first"))

let call t req =
  if t.closed then raise (Wire.Protocol_error "connection closed");
  (* Every outstanding response would precede ours on the wire. *)
  require_idle t "call";
  send_nf t req;
  match read_response t ~closed:"server closed the connection" with
  | Wire.Error msg -> raise (Wire.Protocol_error msg)
  | resp -> resp

let send t req =
  if t.closed then raise (Wire.Protocol_error "connection closed");
  if t.inflight >= t.depth then
    raise (Wire.Protocol_error "send: pipeline full; recv a response first");
  send_nf t req;
  t.inflight <- t.inflight + 1

let recv t =
  if t.inflight = 0 then raise (Wire.Protocol_error "recv: no request in flight");
  let resp = read_response t ~closed:"server closed with a raw send in flight" in
  t.inflight <- t.inflight - 1;
  resp

(* Fill the window, collect the oldest response, repeat: the window
   starts empty, so it empties exactly when every request is answered. *)
let pipelined t reqs =
  require_idle t "pipelined";
  let rec fill = function
    | req :: rest when t.inflight < t.depth ->
        send t req;
        fill rest
    | rest -> rest
  in
  let rec go pending acc =
    let pending = fill pending in
    if t.inflight = 0 then List.rev acc
    else
      let resp = recv t in
      go pending (resp :: acc)
  in
  go reqs []

let exchange t ~puts ~gets =
  let busy groups = List.exists (fun (_, xs) -> xs <> []) groups in
  if not (busy puts || busy gets) then []
  else
    match call t (Wire.Exchange { puts; gets }) with
    | Wire.Values vs ->
        let wanted = List.fold_left (fun n (_, idxs) -> n + List.length idxs) 0 gets in
        if List.compare_length_with vs wanted <> 0 then
          raise (Wire.Protocol_error "Exchange: value count does not match index count");
        vs
    | _ -> raise (Wire.Protocol_error "unexpected response to Exchange")

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
