type request =
  | Hello of string
  | Create_store of string * int
  | Drop_store of string
  | Exchange of { puts : (string * (int * string) list) list; gets : (string * int list) list }
  | Digest
  | Total_bytes
  | Ping
  | Stats
  | Begin_dynamic of { seed : int64; capacity : int; max_lhs : int; cols : int; rows : string list list }
  | Insert_row of string list
  | Delete_row of int
  | Revalidate
  | Bye

type stats = {
  uptime_us : int64;
  sessions : int;
  frames : int;
  bytes_in : int;
  bytes_out : int;
  p50_us : int;
  p95_us : int;
  p99_us : int;
  loop_reads : int;
  loop_writes : int;
  loop_wakeups : int;
  loop_rounds : int;
  inserts : int;
  deletes : int;
  revalidates : int;
  dyn_sessions : int;
}

type fd_status = { fd_lhs : int64; fd_rhs : int; fd_valid : bool }

type dyn_fds = {
  fds : fd_status list;
  dyn_full : int64;
  dyn_shape : int64;
  dyn_events : int;
}

type response =
  | Ok
  | Values of string list
  | Digests of { full : int64; shape : int64; count : int }
  | Bytes_total of int
  | Pong
  | Stats_reply of stats
  | Row_id of int
  | Fds_reply of dyn_fds
  | Error of string

exception Protocol_error of string
exception Incomplete

let protocol_version = 8

(* Hard caps on what a length prefix may claim.  A corrupt or truncated
   stream must fail with [Protocol_error], not drive the reader into a
   multi-gigabyte allocation. *)
let max_string_len = 1 lsl 26 (* 64 MiB per string *)
let max_list_len = 1 lsl 24 (* 16M entries per batch *)
let max_namespace_len = 64
let max_row_cells = 64

(* {2 Sinks and sources}

   The codec is written once against these two records; channels, byte
   buffers and raw strings are all just instances.  The daemon's
   non-blocking connection loop parses requests from a reassembly buffer
   with [string_source] (which raises {!Incomplete} when the frame has
   not fully arrived yet) and serialises responses into a [Buffer.t] with
   [buffer_sink] — no blocking [really_input_string] on the server side.

   Every count, index, length and 64-bit half is one 32-bit
   little-endian word, moved whole by the record's [put_u32]/[get_u32]
   ([v] in 0..2^32-1). *)

type sink = { put_char : char -> unit; put_str : string -> unit; put_u32 : int -> unit }
type source = { get_char : unit -> char; get_exact : int -> string; get_u32 : unit -> int }

let[@inline] word_of_int32 w = Int32.to_int w land 0xFFFFFFFF

let channel_sink oc =
  let word = Bytes.create 4 in
  {
    put_char = output_char oc;
    put_str = output_string oc;
    put_u32 =
      (fun v ->
        Bytes.set_int32_le word 0 (Int32.of_int v);
        output oc word 0 4);
  }

let buffer_sink b =
  {
    put_char = Buffer.add_char b;
    put_str = Buffer.add_string b;
    put_u32 = (fun v -> Buffer.add_int32_le b (Int32.of_int v));
  }

let counting_sink n =
  {
    put_char = (fun _ -> incr n);
    put_str = (fun s -> n := !n + String.length s);
    put_u32 = (fun _ -> n := !n + 4);
  }

let channel_source ic =
  let word = Bytes.create 4 in
  {
    get_char = (fun () -> input_char ic);
    get_exact = (fun n -> really_input_string ic n);
    get_u32 =
      (fun () ->
        really_input ic word 0 4;
        word_of_int32 (Bytes.get_int32_le word 0));
  }

let string_source s pos =
  let need n = if !pos + n > String.length s then raise Incomplete in
  {
    get_char =
      (fun () ->
        need 1;
        let c = s.[!pos] in
        incr pos;
        c);
    get_exact =
      (fun n ->
        need n;
        let r = String.sub s !pos n in
        pos := !pos + n;
        r);
    get_u32 =
      (fun () ->
        need 4;
        let w = String.get_int32_le s !pos in
        pos := !pos + 4;
        word_of_int32 w);
  }

let bytes_source b pos ~limit =
  let limit = min limit (Bytes.length b) in
  let need n = if !pos + n > limit then raise Incomplete in
  {
    get_char =
      (fun () ->
        need 1;
        let c = Bytes.get b !pos in
        incr pos;
        c);
    get_exact =
      (fun n ->
        need n;
        let r = Bytes.sub_string b !pos n in
        pos := !pos + n;
        r);
    get_u32 =
      (fun () ->
        need 4;
        let w = Bytes.get_int32_le b !pos in
        pos := !pos + 4;
        word_of_int32 w);
  }

let put_u32 k v =
  if v < 0 || v > 0xFFFFFFFF then
    raise (Protocol_error (Printf.sprintf "put_u32: %d out of 32-bit range" v));
  k.put_u32 v

let get_u32 src = src.get_u32 ()

(* Low word first: the 8 little-endian bytes of [v]. *)
let put_u64 k v =
  k.put_u32 (Int64.to_int v land 0xFFFFFFFF);
  k.put_u32 (Int64.to_int (Int64.shift_right_logical v 32))

let get_u64 src =
  let lo = src.get_u32 () in
  let hi = src.get_u32 () in
  Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)

let put_string k s =
  let n = String.length s in
  if n > max_string_len then
    raise (Protocol_error (Printf.sprintf "put_string: %d bytes exceeds frame cap %d" n max_string_len));
  put_u32 k n;
  k.put_str s

let get_string src =
  let n = get_u32 src in
  if n > max_string_len then
    raise (Protocol_error (Printf.sprintf "get_string: claimed length %d exceeds frame cap %d" n max_string_len));
  src.get_exact n

let put_count k n =
  if n > max_list_len then
    raise (Protocol_error (Printf.sprintf "put_count: %d entries exceeds batch cap %d" n max_list_len));
  put_u32 k n

let get_count src =
  let n = get_u32 src in
  if n > max_list_len then
    raise (Protocol_error (Printf.sprintf "get_count: claimed %d entries exceeds batch cap %d" n max_list_len));
  n

let get_list src get_item =
  let n = get_count src in
  List.init n (fun _ -> get_item src)

(* An [Exchange] side: count-prefixed (store, count-prefixed items)
   groups. *)
let put_groups k groups put_item =
  put_count k (List.length groups);
  List.iter
    (fun (s, items) ->
      put_string k s;
      put_count k (List.length items);
      List.iter put_item items)
    groups

let get_groups src get_item =
  get_list src (fun src ->
      let s = get_string src in
      (s, get_list src get_item))

let put_namespace k ns =
  if String.length ns > max_namespace_len then
    raise
      (Protocol_error
         (Printf.sprintf "put_namespace: %d bytes exceeds namespace cap %d" (String.length ns)
            max_namespace_len));
  put_string k ns

let get_namespace src =
  let ns = get_string src in
  if String.length ns > max_namespace_len then
    raise
      (Protocol_error
         (Printf.sprintf "get_namespace: %d bytes exceeds namespace cap %d" (String.length ns)
            max_namespace_len));
  ns

(* A row travels as a count-prefixed list of encoded cells; the count is
   capped far below [max_list_len] because a row's arity is bounded by
   the relation model (62 attributes), not by batch sizes. *)
let put_row k cells =
  let n = List.length cells in
  if n > max_row_cells then
    raise (Protocol_error (Printf.sprintf "put_row: %d cells exceeds row cap %d" n max_row_cells));
  put_u32 k n;
  List.iter (put_string k) cells

let get_row src =
  let n = get_u32 src in
  if n > max_row_cells then
    raise
      (Protocol_error (Printf.sprintf "get_row: claimed %d cells exceeds row cap %d" n max_row_cells));
  List.init n (fun _ -> get_string src)

let check_row_arity ~what ~cols row =
  if List.length row <> cols then
    raise
      (Protocol_error
         (Printf.sprintf "%s: row has %d cells, table arity is %d" what (List.length row) cols))

let write_hello oc =
  output_char oc (Char.chr protocol_version);
  flush oc

let read_hello ic = Char.code (input_char ic)

let write_request_sink k req =
  match req with
  | Create_store (s, n) ->
      (* A slot count is capped like a batch count: the server allocates
         every slot it is asked for, and a store wider than the largest
         batch frame is far beyond any real workload. *)
      k.put_char '\001';
      put_string k s;
      put_count k n
  | Drop_store s ->
      k.put_char '\002';
      put_string k s
  | Exchange { puts; gets } ->
      k.put_char '\019';
      put_groups k puts (fun (i, v) ->
          put_u32 k i;
          put_string k v);
      put_groups k gets (put_u32 k)
  | Hello ns ->
      k.put_char '\011';
      put_namespace k ns
  | Ping -> k.put_char '\012'
  | Stats -> k.put_char '\013'
  | Begin_dynamic { seed; capacity; max_lhs; cols; rows } ->
      if cols < 1 || cols > max_row_cells then
        raise
          (Protocol_error
             (Printf.sprintf "Begin_dynamic: arity %d outside 1..%d" cols max_row_cells));
      List.iter (check_row_arity ~what:"Begin_dynamic" ~cols) rows;
      k.put_char '\014';
      put_u64 k seed;
      put_u32 k capacity;
      put_u32 k max_lhs;
      put_u32 k cols;
      put_count k (List.length rows);
      List.iter (put_row k) rows
  | Insert_row cells ->
      k.put_char '\015';
      put_row k cells
  | Delete_row id ->
      k.put_char '\016';
      put_u32 k id
  | Revalidate -> k.put_char '\017'
  | Digest -> k.put_char '\006'
  | Total_bytes -> k.put_char '\007'
  | Bye -> k.put_char '\008'

let read_request_src src =
  match src.get_char () with
  | '\001' ->
      let s = get_string src in
      Create_store (s, get_count src)
  | '\002' -> Drop_store (get_string src)
  | '\019' ->
      let puts =
        get_groups src (fun src ->
            let i = get_u32 src in
            (i, get_string src))
      in
      Exchange { puts; gets = get_groups src get_u32 }
  | '\011' -> Hello (get_namespace src)
  | '\012' -> Ping
  | '\013' -> Stats
  | '\014' ->
      let seed = get_u64 src in
      let capacity = get_u32 src in
      let max_lhs = get_u32 src in
      let cols = get_u32 src in
      if cols < 1 || cols > max_row_cells then
        raise
          (Protocol_error
             (Printf.sprintf "Begin_dynamic: arity %d outside 1..%d" cols max_row_cells));
      let rows =
        get_list src (fun src ->
            let row = get_row src in
            check_row_arity ~what:"Begin_dynamic" ~cols row;
            row)
      in
      Begin_dynamic { seed; capacity; max_lhs; cols; rows }
  | '\015' -> Insert_row (get_row src)
  | '\016' -> Delete_row (get_u32 src)
  | '\017' -> Revalidate
  | '\006' -> Digest
  | '\007' -> Total_bytes
  | '\008' -> Bye
  | c -> raise (Protocol_error (Printf.sprintf "bad request tag %d" (Char.code c)))

let write_response_sink k resp =
  match resp with
  | Ok -> k.put_char '\100'
  | Values vs ->
      k.put_char '\105';
      put_count k (List.length vs);
      List.iter (put_string k) vs
  | Digests { full; shape; count } ->
      k.put_char '\102';
      put_u64 k full;
      put_u64 k shape;
      put_u32 k count
  | Bytes_total n ->
      k.put_char '\103';
      put_u32 k n
  | Pong -> k.put_char '\106'
  | Stats_reply s ->
      k.put_char '\107';
      put_u64 k s.uptime_us;
      put_u32 k s.sessions;
      put_u64 k (Int64.of_int s.frames);
      put_u64 k (Int64.of_int s.bytes_in);
      put_u64 k (Int64.of_int s.bytes_out);
      put_u32 k s.p50_us;
      put_u32 k s.p95_us;
      put_u32 k s.p99_us;
      (* Fixed-width on purpose: journal replay re-accounts response
         sizes with [response_size], so a [Stats_reply]'s wire size must
         not depend on the counter values. *)
      put_u64 k (Int64.of_int s.loop_reads);
      put_u64 k (Int64.of_int s.loop_writes);
      put_u64 k (Int64.of_int s.loop_wakeups);
      put_u64 k (Int64.of_int s.loop_rounds);
      put_u64 k (Int64.of_int s.inserts);
      put_u64 k (Int64.of_int s.deletes);
      put_u64 k (Int64.of_int s.revalidates);
      put_u32 k s.dyn_sessions
  | Row_id id ->
      k.put_char '\108';
      put_u32 k id
  | Fds_reply { fds; dyn_full; dyn_shape; dyn_events } ->
      k.put_char '\109';
      put_count k (List.length fds);
      List.iter
        (fun { fd_lhs; fd_rhs; fd_valid } ->
          put_u64 k fd_lhs;
          put_u32 k fd_rhs;
          k.put_char (if fd_valid then '\001' else '\000'))
        fds;
      put_u64 k dyn_full;
      put_u64 k dyn_shape;
      put_u32 k dyn_events
  | Error msg ->
      k.put_char '\104';
      put_string k msg

let read_response_src src =
  match src.get_char () with
  | '\100' -> Ok
  | '\105' -> Values (get_list src get_string)
  | '\102' ->
      let full = get_u64 src in
      let shape = get_u64 src in
      let count = get_u32 src in
      Digests { full; shape; count }
  | '\103' -> Bytes_total (get_u32 src)
  | '\106' -> Pong
  | '\107' ->
      let uptime_us = get_u64 src in
      let sessions = get_u32 src in
      let frames = Int64.to_int (get_u64 src) in
      let bytes_in = Int64.to_int (get_u64 src) in
      let bytes_out = Int64.to_int (get_u64 src) in
      let p50_us = get_u32 src in
      let p95_us = get_u32 src in
      let p99_us = get_u32 src in
      let loop_reads = Int64.to_int (get_u64 src) in
      let loop_writes = Int64.to_int (get_u64 src) in
      let loop_wakeups = Int64.to_int (get_u64 src) in
      let loop_rounds = Int64.to_int (get_u64 src) in
      let inserts = Int64.to_int (get_u64 src) in
      let deletes = Int64.to_int (get_u64 src) in
      let revalidates = Int64.to_int (get_u64 src) in
      let dyn_sessions = get_u32 src in
      Stats_reply
        { uptime_us; sessions; frames; bytes_in; bytes_out; p50_us; p95_us; p99_us;
          loop_reads; loop_writes; loop_wakeups; loop_rounds;
          inserts; deletes; revalidates; dyn_sessions }
  | '\108' -> Row_id (get_u32 src)
  | '\109' ->
      let fds =
        get_list src (fun src ->
            let fd_lhs = get_u64 src in
            let fd_rhs = get_u32 src in
            let fd_valid =
              match src.get_char () with
              | '\000' -> false
              | '\001' -> true
              | c -> raise (Protocol_error (Printf.sprintf "bad fd validity byte %d" (Char.code c)))
            in
            { fd_lhs; fd_rhs; fd_valid })
      in
      let dyn_full = get_u64 src in
      let dyn_shape = get_u64 src in
      let dyn_events = get_u32 src in
      Fds_reply { fds; dyn_full; dyn_shape; dyn_events }
  | '\104' -> Error (get_string src)
  | c -> raise (Protocol_error (Printf.sprintf "bad response tag %d" (Char.code c)))

let write_request oc req =
  write_request_sink (channel_sink oc) req;
  flush oc

let read_request ic = read_request_src (channel_source ic)

let write_response oc resp =
  write_response_sink (channel_sink oc) resp;
  flush oc

let read_response ic = read_response_src (channel_source ic)

(* Canonical encoded sizes; the codec is deterministic so this equals the
   number of bytes the frame occupies on the wire. *)
let request_size req =
  let n = ref 0 in
  write_request_sink (counting_sink n) req;
  !n

let response_size resp =
  let n = ref 0 in
  write_response_sink (counting_sink n) resp;
  !n
