(* Recursive PathORAM tests: functional equivalence to a model, the
   client-memory reduction it exists for, and access-pattern shape
   independence. *)

let make ?(capacity = 512) ?(fanout = 16) ?(top_cutoff = 8) ?(seed = 5) () =
  let server = Servsim.Server.create () in
  let cipher = Crypto.Cell_cipher.create (String.make 16 'R') in
  let rng = Crypto.Rng.create seed in
  let o =
    Oram.Recursive_path_oram.setup ~name:"rec"
      { capacity; payload_len = 8; fanout; top_cutoff }
      server cipher (Crypto.Rng.int rng)
  in
  (server, o)

let enc_val i = Relation.Codec.encode_int i

let test_basic_ops () =
  let _, o = make () in
  Alcotest.(check (option string)) "absent" None (Oram.Recursive_path_oram.read o ~key:3);
  Oram.Recursive_path_oram.write o ~key:3 (enc_val 33);
  Alcotest.(check (option string)) "present" (Some (enc_val 33))
    (Oram.Recursive_path_oram.read o ~key:3);
  Oram.Recursive_path_oram.write o ~key:3 (enc_val 44);
  Alcotest.(check (option string)) "overwritten" (Some (enc_val 44))
    (Oram.Recursive_path_oram.read o ~key:3);
  Oram.Recursive_path_oram.remove o ~key:3;
  Alcotest.(check (option string)) "removed" None (Oram.Recursive_path_oram.read o ~key:3)

let test_recursion_depth () =
  let _, o = make ~capacity:512 ~fanout:16 ~top_cutoff:8 () in
  (* 512 -> 32 -> 2: data tree + two map trees. *)
  Alcotest.(check int) "three trees" 3 (Oram.Recursive_path_oram.recursion_depth o);
  let _, small = make ~capacity:6 ~top_cutoff:8 () in
  Alcotest.(check int) "flat when tiny" 1 (Oram.Recursive_path_oram.recursion_depth small)

let test_model_random_ops () =
  let capacity = 128 in
  let _, o = make ~capacity ~seed:11 () in
  let model = Hashtbl.create 64 in
  let rng = Crypto.Rng.create 99 in
  for step = 1 to 1200 do
    let k = Crypto.Rng.int rng capacity in
    match Crypto.Rng.int rng 3 with
    | 0 ->
        let v = enc_val (Crypto.Rng.int rng 100000) in
        Oram.Recursive_path_oram.write o ~key:k v;
        Hashtbl.replace model k v
    | 1 ->
        Oram.Recursive_path_oram.remove o ~key:k;
        Hashtbl.remove model k
    | _ ->
        let expect = Hashtbl.find_opt model k in
        let got = Oram.Recursive_path_oram.read o ~key:k in
        if expect <> got then Alcotest.failf "step %d key %d mismatch" step k
  done;
  Alcotest.(check int) "live count" (Hashtbl.length model)
    (Oram.Recursive_path_oram.live_blocks o)

let test_client_memory_sublinear () =
  (* The whole point: client state far below the flat position map. *)
  let n = 4096 in
  let server = Servsim.Server.create () in
  let cipher = Crypto.Cell_cipher.create (String.make 16 'R') in
  let rng = Crypto.Rng.create 5 in
  let flat =
    Oram.Path_oram.setup ~name:"flat" { capacity = n; key_len = 8; payload_len = 8 } server
      cipher (Crypto.Rng.int rng)
  in
  let rec_ =
    Oram.Recursive_path_oram.setup ~name:"rec"
      { capacity = n; payload_len = 8; fanout = 16; top_cutoff = 16 }
      server cipher (Crypto.Rng.int rng)
  in
  for i = 0 to 499 do
    Oram.Path_oram.write flat ~key:(Relation.Codec.encode_int i) (enc_val i);
    Oram.Recursive_path_oram.write rec_ ~key:i (enc_val i)
  done;
  let flat_bytes = Oram.Path_oram.client_state_bytes flat in
  let rec_bytes = Oram.Recursive_path_oram.client_state_bytes rec_ in
  Alcotest.(check bool)
    (Printf.sprintf "recursive %dB < flat %dB / 2" rec_bytes flat_bytes)
    true
    (rec_bytes < flat_bytes / 2)

let test_shape_data_independent () =
  let run values =
    let server, o = make ~capacity:64 ~seed:21 () in
    List.iteri (fun i v -> Oram.Recursive_path_oram.write o ~key:i (enc_val v)) values;
    ignore (Oram.Recursive_path_oram.read o ~key:0);
    ( Servsim.Trace.shape_digest (Servsim.Server.trace server),
      Servsim.Trace.count (Servsim.Server.trace server) )
  in
  let s1, c1 = run [ 1; 1; 1; 1 ] in
  let s2, c2 = run [ 9; 8; 7; 6 ] in
  Alcotest.(check int64) "same shape" s1 s2;
  Alcotest.(check int) "same count" c1 c2

let test_bounds_checked () =
  let _, o = make ~capacity:16 () in
  Alcotest.(check bool) "negative key" true
    (match Oram.Recursive_path_oram.read o ~key:(-1) with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "key too large" true
    (match Oram.Recursive_path_oram.read o ~key:16 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_top_cutoff_checked () =
  (* A one-block level still has ⌈1/fanout⌉ = 1 > top_cutoff blocks above
     it: setup must refuse the config rather than recurse forever. *)
  List.iter
    (fun top_cutoff ->
      Alcotest.(check bool)
        (Printf.sprintf "top_cutoff %d rejected" top_cutoff)
        true
        (match make ~capacity:8 ~fanout:4 ~top_cutoff () with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ 0; -1 ]

let test_destroy () =
  let server, o = make () in
  Alcotest.(check bool) "allocated" true (Servsim.Server.total_bytes server > 0);
  Oram.Recursive_path_oram.destroy o;
  Alcotest.(check int) "freed" 0 (Servsim.Server.total_bytes server)

let qcheck_model =
  QCheck.Test.make ~name:"recursive oram = model (random op lists)" ~count:20
    QCheck.(list_of_size Gen.(5 -- 50) (pair (int_bound 31) (option (int_bound 100))))
    (fun ops ->
      let _, o = make ~capacity:32 ~seed:(1 + List.length ops) () in
      let model = Hashtbl.create 16 in
      List.for_all
        (fun (k, v) ->
          match v with
          | Some v ->
              Oram.Recursive_path_oram.write o ~key:k (enc_val v);
              Hashtbl.replace model k (enc_val v);
              true
          | None -> Hashtbl.find_opt model k = Oram.Recursive_path_oram.read o ~key:k)
        ops)

let suite =
  [
    Alcotest.test_case "basic ops" `Quick test_basic_ops;
    Alcotest.test_case "recursion depth" `Quick test_recursion_depth;
    Alcotest.test_case "random ops vs model" `Quick test_model_random_ops;
    Alcotest.test_case "client memory sublinear" `Quick test_client_memory_sublinear;
    Alcotest.test_case "shape data-independent" `Quick test_shape_data_independent;
    Alcotest.test_case "bounds checked" `Quick test_bounds_checked;
    Alcotest.test_case "top_cutoff < 1 rejected" `Quick test_top_cutoff_checked;
    Alcotest.test_case "destroy frees storage" `Quick test_destroy;
    QCheck_alcotest.to_alcotest qcheck_model;
  ]
