(* Failure injection: a corrupted or misbehaving server must surface as a
   client-side integrity error, never as silently wrong results; plus
   malformed-input robustness of the parsers and the wire protocol. *)

open Relation

let test_corrupted_cell_detected () =
  (* Flip bytes of a stored cell ciphertext; the client's CBC decryption
     must reject it (with overwhelming probability the padding breaks) or
     the codec must reject the garbled plaintext. *)
  let t = Datasets.Examples.fig1 () in
  let session = Core.Session.create ~n:4 ~m:3 () in
  let db = Core.Enc_db.outsource session t in
  let store = Servsim.Server.find_store session.Core.Session.server (Core.Enc_db.store_name db) in
  let detected = ref 0 in
  let rng = Crypto.Rng.create 13 in
  for trial = 1 to 20 do
    let idx = Crypto.Rng.int rng 12 in
    let c = Bytes.of_string (Servsim.Block_store.read store idx) in
    let pos = Crypto.Rng.int rng (Bytes.length c) in
    Bytes.set c pos (Char.chr (Char.code (Bytes.get c pos) lxor (1 + Crypto.Rng.int rng 254)));
    Servsim.Block_store.write_many store [ (idx, Bytes.to_string c) ];
    (match Core.Enc_db.read_cell db ~row:(idx / 3) ~col:(idx mod 3) with
    | exception Invalid_argument _ -> incr detected
    | v ->
        (* Corruption of non-final blocks can decrypt to valid padding and
           a valid codec tag; then the value differs from the original. *)
        if not (Value.equal v (Table.cell t ~row:(idx / 3) ~col:(idx mod 3))) then
          incr detected);
    ignore trial
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d/20 corruptions detected" !detected)
    true (!detected >= 18)

let test_truncated_ciphertext_rejected () =
  let cipher = Crypto.Cell_cipher.create (String.make 16 'T') in
  List.iter
    (fun s ->
      Alcotest.(check bool) "rejected" true
        (match Crypto.Cell_cipher.decrypt cipher s with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ ""; "short"; String.make 31 'x'; String.make 40 'y' ]

(* Corrupt every block of an ORAM's stores after one write: the next
   access must fail loudly, for both tree variants.  The blocks are
   either garbage or a well-formed cell one AES block shorter than a
   bucket, whose three whole slots hold key 1 with a wrong payload: only
   the bucket length check can tell it from a real bucket. *)
let check_corrupt_stores () =
  let corrupt_all server block =
    List.iter
      (fun name ->
        let store = Servsim.Server.find_store server name in
        for i = 0 to Servsim.Block_store.length store - 1 do
          Servsim.Block_store.write_many store [ (i, block) ]
        done)
      (Servsim.Server.store_names server)
  in
  let short_bucket cipher =
    let slot = "\001" ^ Codec.encode_int 1 ^ Codec.encode_int 99 in
    Crypto.Cell_cipher.encrypt cipher (slot ^ slot ^ slot ^ "\000")
  in
  let path server cipher rand =
    let o =
      Oram.Path_oram.setup ~name:"o" { capacity = 16; key_len = 8; payload_len = 8 } server
        cipher rand
    in
    Oram.Path_oram.write o ~key:(Codec.encode_int 1) (Codec.encode_int 1);
    fun () -> Oram.Path_oram.read o ~key:(Codec.encode_int 1)
  in
  let recursive server cipher rand =
    let o =
      Oram.Recursive_path_oram.setup ~name:"o"
        { capacity = 64; payload_len = 8; fanout = 4; top_cutoff = 4 }
        server cipher rand
    in
    Oram.Recursive_path_oram.write o ~key:1 (Codec.encode_int 1);
    fun () -> Oram.Recursive_path_oram.read o ~key:1
  in
  List.iter
    (fun (variant, setup) ->
      List.iter
        (fun (how, block) ->
          let server = Servsim.Server.create () in
          let cipher = Crypto.Cell_cipher.create (String.make 16 'K') in
          let rng = Crypto.Rng.create 3 in
          let read = setup server cipher (Crypto.Rng.int rng) in
          corrupt_all server (block cipher);
          Alcotest.(check bool) (Printf.sprintf "%s: %s detected" variant how) true
            (match read () with
            | exception Invalid_argument _ -> true
            | exception Failure _ -> true
            | _ -> false))
        [ ("garbage", fun _ -> String.make 64 'Z'); ("short bucket", short_bucket) ])
    [ ("path", path); ("recursive", recursive) ]

(* A server on a socketpair that serves every frame through
   [Store.Handler], except that the [after]-th answer carrying an ORAM
   bucket has its first bucket passed through [tamper].  Returns [f]'s
   result and whether the tampered answer was sent. *)
let with_tampering_server ~after tamper f =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let is_oram name =
    List.exists
      (fun p -> String.starts_with ~prefix:p name)
      [ "or-kl-"; "or-il-"; "ex-klf-"; "ex-ikl-" ]
  in
  let tampered = ref false in
  let serve () =
    let ic = Unix.in_channel_of_descr b and oc = Unix.out_channel_of_descr b in
    let st = Store.Handler.create_state () in
    let seen = ref 0 in
    (try
       Servsim.Wire.write_hello oc;
       ignore (Servsim.Wire.read_hello ic);
       while true do
         let req = Servsim.Wire.read_request ic in
         let resp =
           match Store.Handler.handle st req with
           | r -> r
           | exception Servsim.Wire.Protocol_error msg -> Servsim.Wire.Error msg
         in
         let resp =
           match (req, resp) with
           | Servsim.Wire.Exchange { gets; _ }, Servsim.Wire.Values vs
             when List.exists (fun (name, idxs) -> is_oram name && idxs <> []) gets ->
               incr seen;
               if !seen <> after then resp
               else begin
                 (* The first value answering an ORAM get. *)
                 let owners = List.concat_map (fun (name, idxs) -> List.map (fun _ -> name) idxs) gets in
                 let hit = ref false in
                 tampered := true;
                 Servsim.Wire.Values
                   (List.map2
                      (fun name v ->
                        if !hit || not (is_oram name) then v
                        else begin
                          hit := true;
                          tamper v
                        end)
                      owners vs)
               end
           | _ -> resp
         in
         Servsim.Wire.write_response oc resp
       done
     with End_of_file | Sys_error _ -> ());
    close_out_noerr oc
  in
  let server = Thread.create serve () in
  let conn = Servsim.Remote.connect_fd a in
  let r =
    Fun.protect
      ~finally:(fun () ->
        Servsim.Remote.close conn;
        Thread.join server)
      (fun () -> f conn)
  in
  (r, !tampered)

(* A bucket cell cut short by one AES block, or with the low bit of its
   last padding byte flipped (through the CBC chain: the byte 16 before
   it), can never decrypt to a whole bucket: a discovery whose server
   returns one mid-run must raise, never return FDs. *)
let check_discover_tampered_bucket () =
  let t = Datasets.Rnd.generate_with_domain ~seed:9 ~rows:24 ~cols:3 ~domain:3 () in
  let truncate c = String.sub c 0 (String.length c - 16) in
  let flip c =
    let b = Bytes.of_string c in
    let i = Bytes.length b - 17 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
    Bytes.to_string b
  in
  List.iter
    (fun (name, method_) ->
      let expect = (Core.Protocol.discover ~seed:7 method_ t).Core.Protocol.fds in
      let run tamper =
        with_tampering_server ~after:40 tamper (fun conn ->
            match Core.Protocol.discover ~seed:7 ~remote:conn method_ t with
            | r -> Some r.Core.Protocol.fds
            | exception Invalid_argument _ -> None)
      in
      let fds, tampered = run Fun.id in
      Alcotest.(check bool) (name ^ ": untouched answer sent") true tampered;
      Alcotest.(check bool) (name ^ ": honest server gives the local FDs") true
        (fds = Some expect);
      List.iter
        (fun (how, tamper) ->
          let fds, tampered = run tamper in
          Alcotest.(check bool) (Printf.sprintf "%s: %s bucket sent" name how) true tampered;
          Alcotest.(check bool) (Printf.sprintf "%s: %s bucket raises" name how) true (fds = None))
        [ ("truncated", truncate); ("bit-flipped", flip) ])
    [ ("or-oram", Core.Protocol.Or_oram); ("ex-oram", Core.Protocol.Ex_oram) ]

let test_oram_corruption_detected () =
  check_corrupt_stores ();
  check_discover_tampered_bucket ()

let test_csv_malformed () =
  List.iter
    (fun doc ->
      Alcotest.(check bool) (Printf.sprintf "rejected: %S" doc) true
        (match Csv.of_string doc with exception Invalid_argument _ -> true | _ -> false))
    [ ""; "a,b\n1,2,3\n"; "a,b\n\"unterminated\n" ]

let test_wire_malformed_stream () =
  (* Feed garbage bytes to the server loop: it must not crash the
     process; the reader raises and serve returns on EOF/protocol error. *)
  let r, w = Unix.pipe () in
  let oc = Unix.out_channel_of_descr w in
  output_string oc "\255garbage-bytes";
  close_out oc;
  let ic = Unix.in_channel_of_descr r in
  Alcotest.(check bool) "protocol error raised" true
    (match Servsim.Wire.read_request ic with
    | exception Servsim.Wire.Protocol_error _ -> true
    | exception End_of_file -> true
    | _ -> false);
  close_in ic

let test_stash_statistics () =
  (* Hammer one PathORAM and confirm the stash stays within the paper's
     7·log n bound throughout (the bound is statistical; a violation
     would indicate an eviction bug rather than bad luck at these
     sizes). *)
  let server = Servsim.Server.create () in
  let cipher = Crypto.Cell_cipher.create (String.make 16 'K') in
  let rng = Crypto.Rng.create 77 in
  let o =
    Oram.Path_oram.setup ~name:"s" { capacity = 512; key_len = 8; payload_len = 8 } server
      cipher (Crypto.Rng.int rng)
  in
  for i = 0 to 511 do
    Oram.Path_oram.write o ~key:(Codec.encode_int i) (Codec.encode_int i)
  done;
  for round = 1 to 4 do
    for i = 0 to 511 do
      ignore (Oram.Path_oram.read o ~key:(Codec.encode_int ((i * 7) mod 512)))
    done;
    ignore round
  done;
  Alcotest.(check int) "no overflow" 0 (Oram.Path_oram.stash_overflows o);
  Alcotest.(check bool)
    (Printf.sprintf "max stash %d <= limit %d" (Oram.Path_oram.max_stash_seen o)
       (Oram.Path_oram.stash_limit o))
    true
    (Oram.Path_oram.max_stash_seen o <= Oram.Path_oram.stash_limit o)

let test_schema_mismatch_rejected () =
  let t = Datasets.Examples.fig1 () in
  let session = Core.Session.create ~n:99 ~m:3 () in
  Alcotest.(check bool) "dimension mismatch" true
    (match Core.Enc_db.outsource session t with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_dead_server_process () =
  (* Take the server away mid-session (no drain grace, so the live
     connection is cut): the next call must fail with the typed wire
     error, not hang or leak a raw I/O exception. *)
  let conn =
    Service.Daemon.with_local
      ~config:{ Service.Daemon.default_config with drain_grace = 0. }
      (fun path _ ->
        let conn = Servsim.Remote.connect_unix path in
        ignore (Servsim.Remote.call conn (Servsim.Wire.Create_store ("s", 1)));
        conn)
  in
  Alcotest.(check bool) "typed error after server death" true
    (match Servsim.Remote.exchange conn ~puts:[] ~gets:[ ("s", [ 0 ]) ] with
    | exception Servsim.Wire.Protocol_error _ -> true
    | _ -> false);
  Servsim.Remote.close conn

(* A fake server that answers the handshake, then waits for the
   client's first pipelined burst, reads one byte of it and closes.
   Closing a Unix socket with unread bytes resets the connection, so the
   client's next read fails with ECONNRESET ([Sys_error]), not a clean
   end of file. *)
let with_resetting_server ~depth f =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let replies = Printf.sprintf "%c\100" (Char.chr Servsim.Wire.protocol_version) in
  ignore (Unix.write_substring b replies 0 (String.length replies));
  let setup = 1 + Servsim.Wire.request_size (Servsim.Wire.Hello "default") in
  let server =
    Thread.create
      (fun () ->
        let byte = Bytes.create 1 in
        for _ = 1 to setup + 1 do
          ignore (Unix.read b byte 0 1)
        done;
        Unix.close b)
      ()
  in
  let conn = Servsim.Remote.connect_fd ~depth a in
  Fun.protect
    ~finally:(fun () ->
      Thread.join server;
      Servsim.Remote.close conn)
    (fun () -> f conn)

let typed_error f =
  match f () with
  | _ -> false
  | exception Servsim.Wire.Protocol_error _ -> true

let test_reset_mid_pipeline () =
  with_resetting_server ~depth:4 (fun conn ->
      Alcotest.(check bool) "pipelined: reset is a typed error" true
        (typed_error (fun () ->
             Servsim.Remote.pipelined conn (List.init 4 (fun _ -> Servsim.Wire.Ping)))))

let suite =
  [
    Alcotest.test_case "corrupted cells detected" `Quick test_corrupted_cell_detected;
    Alcotest.test_case "truncated ciphertexts rejected" `Quick test_truncated_ciphertext_rejected;
    Alcotest.test_case "ORAM corruption detected" `Quick test_oram_corruption_detected;
    Alcotest.test_case "malformed CSV rejected" `Quick test_csv_malformed;
    Alcotest.test_case "malformed wire stream" `Quick test_wire_malformed_stream;
    Alcotest.test_case "stash statistics" `Slow test_stash_statistics;
    Alcotest.test_case "schema mismatch rejected" `Quick test_schema_mismatch_rejected;
    Alcotest.test_case "dead server process" `Quick test_dead_server_process;
    Alcotest.test_case "server reset mid-pipeline" `Quick test_reset_mid_pipeline;
  ]
