open Relation

type skey =
  | V of Value.t
  | L of int
  | Pad

(* The sort key is decrypted cell content (or a label derived from it):
   a secret-flow source for R11, marked explicitly rather than inherited
   from the tree-wide [key] label. *)
type elt = { key : skey; [@secret] id : int }

let compare_skey a b =
  match (a, b) with
  | Pad, Pad -> 0
  | Pad, _ -> 1
  | _, Pad -> -1
  | V x, V y -> Value.compare x y
  | L x, L y -> Int.compare x y
  | L _, V _ -> -1
  | V _, L _ -> 1

let compare_by_key a b =
  match
    compare_skey
      (a.key
      [@lint.declassify
        "oblivious-sort comparator: the network schedule is data-independent, so the \
         comparison decides only which re-encrypted cell lands where"])
      (b.key
      [@lint.declassify
        "oblivious-sort comparator: the network schedule is data-independent, so the \
         comparison decides only which re-encrypted cell lands where"])
  with
  | 0 -> Int.compare a.id b.id
  | c -> c

let compare_by_id a b = Int.compare a.id b.id

let pad_elt = { key = Pad; id = max_int }

(* Layout: tag byte | key field (value_width bytes) | id (8 bytes). *)
let elt_width = 1 + Codec.value_width + 8

let chunk_width = 32
let buffer_slots = 2 * chunk_width

let encode_elt e =
  let b = Bytes.make elt_width '\000' in
  (match
     (e.key
     [@lint.declassify
       "client-local serialization into the fixed-width cell; only the re-encrypted \
        cell leaves the client"])
   with
  | Pad -> Bytes.set b 0 '\000'
  | V v ->
      Bytes.set b 0 '\001';
      Bytes.blit_string (Codec.encode_value v) 0 b 1 Codec.value_width
  | L l ->
      Bytes.set b 0 '\002';
      Bytes.blit_string (Codec.encode_int l) 0 b 1 8);
  Bytes.blit_string (Codec.encode_int e.id) 0 b (1 + Codec.value_width) 8;
  Bytes.to_string b

let decode_elt s =
  if String.length s <> elt_width then invalid_arg "Sort_backend.decode_elt: bad width";
  let id = Codec.decode_int (String.sub s (1 + Codec.value_width) 8) in
  let key =
    match s.[0] with
    | '\000' -> Pad
    | '\001' -> V (Codec.decode_value (String.sub s 1 Codec.value_width))
    | '\002' -> L (Codec.decode_int (String.sub s 1 8))
    | _ -> invalid_arg "Sort_backend.decode_elt: bad tag"
  in
  { key; id }

type io = {
  fetch : int list -> elt list Servsim.Frame.read;
  write : (int * elt) list -> Servsim.Frame.puts;
}

type t = {
  length : int;
  n : int;
  io : io;
  worker : int -> io;
  charge_buffers : int -> unit;
  destroy : unit -> unit;
}

(* One ledger tag per session, whichever arrays a call works on: a Sort
   call's working memory is its buffers, not the arrays it touches. *)
let buffer_tag = "sort-buffer"

let encrypted (session : Session.t) ~n =
  let length = Osort.Network.ceil_pow2 n in
  let name = Session.fresh_name session "sort" in
  let store = Servsim.Server.create_store session.Session.server name ~slots:length in
  let io_with cipher =
    {
      fetch =
        (fun idxs ->
          {
            Servsim.Frame.gets = [ (store, idxs) ];
            finish =
              (fun blocks -> List.map decode_elt (Crypto.Cell_cipher.decrypt_many cipher blocks));
          });
      write =
        (fun items ->
          let cts =
            Crypto.Cell_cipher.encrypt_many cipher (List.map (fun (_, e) -> encode_elt e) items)
          in
          [ (store, List.map2 (fun (i, _) ct -> (i, ct)) items cts) ]);
    }
  in
  let io = io_with session.Session.cipher in
  {
    length;
    n;
    io;
    worker =
      (fun _ ->
        (* Worker domains must not share the trace and cost ledger, nor
           a remote session's one socket. *)
        if
          Servsim.Trace.enabled (Session.trace session)
          || Option.is_some (Servsim.Server.remote session.Session.server)
        then
          invalid_arg "Sort_backend.encrypted: parallel sort needs tracing off and a local server";
        io_with (Session.fresh_cipher session));
    charge_buffers =
      (fun k ->
        (* Constant client memory: one buffer of at most B decrypted
           elements plus the key per working domain — the paper's
           O(1)-client-memory claim for Sort (§IV-D(c)). *)
        Servsim.Cost.client_set (Session.cost session) ~tag:buffer_tag
          (k * ((min buffer_slots length * elt_width) + 16)));
    destroy = (fun () -> Servsim.Server.drop_store session.Session.server name);
  }

let enclave ~n =
  let length = Osort.Network.ceil_pow2 n in
  let arr = Array.make length pad_elt in
  let io =
    {
      fetch =
        (fun idxs ->
          { Servsim.Frame.gets = []; finish = (fun _ -> List.map (fun i -> arr.(i)) idxs) });
      write =
        (fun items ->
          List.iter (fun (i, e) -> arr.(i) <- e) items;
          []);
    }
  in
  { length; n; io; worker = (fun _ -> io); charge_buffers = ignore; destroy = ignore }
