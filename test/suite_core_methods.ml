(* Core protocol correctness: every oblivious method must compute exactly
   the plaintext partition cardinalities and exactly the TANE FD set. *)

open Relation
open Core

let pp_fds fds = String.concat "; " (List.map (Format.asprintf "%a" Fdbase.Fd.pp) fds)

let random_table ?(seed = 7) ~n ~m ~domain () =
  Datasets.Rnd.generate_with_domain ~seed ~rows:n ~cols:m ~domain ()

let methods = [ Protocol.Or_oram; Protocol.Ex_oram; Protocol.Sort ]

let test_partition_cardinality_single () =
  let t = random_table ~n:50 ~m:3 ~domain:5 () in
  List.iter
    (fun m ->
      for col = 0 to 2 do
        let expect =
          Fdbase.Partition.cardinality (Fdbase.Partition.of_column (Table.column t col))
        in
        let got, _ = Protocol.partition_cardinality m t (Attrset.singleton col) in
        Alcotest.(check int)
          (Printf.sprintf "%s col %d" (Protocol.method_name m) col)
          expect got
      done)
    methods

let test_partition_cardinality_pairs () =
  let t = random_table ~seed:8 ~n:40 ~m:4 ~domain:4 () in
  List.iter
    (fun m ->
      List.iter
        (fun (a, b) ->
          let x = Attrset.of_list [ a; b ] in
          let expect = Fdbase.Partition.cardinality (Fdbase.Partition.of_table t x) in
          let got, _ = Protocol.partition_cardinality m t x in
          Alcotest.(check int)
            (Printf.sprintf "%s {%d,%d}" (Protocol.method_name m) a b)
            expect got)
        [ (0, 1); (1, 2); (0, 3) ])
    methods

let test_partition_cardinality_triple () =
  let t = random_table ~seed:9 ~n:30 ~m:4 ~domain:3 () in
  let x = Attrset.of_list [ 0; 1; 2 ] in
  let expect = Fdbase.Partition.cardinality (Fdbase.Partition.of_table t x) in
  List.iter
    (fun m ->
      let got, _ = Protocol.partition_cardinality m t x in
      Alcotest.(check int) (Protocol.method_name m) expect got)
    methods

let test_discover_fig1 () =
  let t = Datasets.Examples.fig1 () in
  let expect = Fdbase.Tane.fds t in
  List.iter
    (fun m ->
      let r = Protocol.discover m t in
      Alcotest.(check string) (Protocol.method_name m) (pp_fds expect) (pp_fds r.Protocol.fds))
    methods

let test_discover_employee () =
  let t = Datasets.Examples.employee () in
  let expect = Fdbase.Tane.fds t in
  List.iter
    (fun m ->
      let r = Protocol.discover m t in
      Alcotest.(check string) (Protocol.method_name m) (pp_fds expect) (pp_fds r.Protocol.fds);
      (* The paper's §I motivation: Position → Department must hold. *)
      let schema = Table.schema t in
      let pos = Schema.index schema "Position" and dep = Schema.index schema "Department" in
      Alcotest.(check bool) "Position -> Department" true
        (List.exists
           (fun fd -> Fdbase.Fd.equal fd { Fdbase.Fd.lhs = Attrset.singleton pos; rhs = dep })
           r.Protocol.fds))
    methods

let test_discover_random_matches_tane () =
  List.iter
    (fun seed ->
      let t = random_table ~seed ~n:24 ~m:4 ~domain:3 () in
      let expect = Fdbase.Tane.fds t in
      List.iter
        (fun m ->
          let r = Protocol.discover m t in
          Alcotest.(check string)
            (Printf.sprintf "%s seed %d" (Protocol.method_name m) seed)
            (pp_fds expect) (pp_fds r.Protocol.fds))
        methods)
    [ 1; 2; 3 ]

let test_discover_dataset_samples () =
  (* Small samples of the three "real-world" stand-ins. *)
  let rng = Crypto.Rng.create 99 in
  let tables =
    [
      ("adult", Datasets.Adult_like.generate ~rows:64 ());
      ("letter", Datasets.Letter_like.generate ~rows:64 ());
      ("flight", Datasets.Flight_like.generate ~rows:64 ());
    ]
  in
  List.iter
    (fun (name, full) ->
      let t = Table.sample_rows full (Crypto.Rng.int rng) 32 in
      let expect = (Fdbase.Tane.discover ~max_lhs:2 t).Fdbase.Lattice.fds in
      List.iter
        (fun m ->
          let r = Protocol.discover ~max_lhs:2 m t in
          Alcotest.(check string)
            (Printf.sprintf "%s on %s" (Protocol.method_name m) name)
            (pp_fds expect) (pp_fds r.Protocol.fds))
        methods)
    tables

let test_enclave_matches_tane () =
  let t = random_table ~seed:5 ~n:32 ~m:4 ~domain:3 () in
  let expect = Fdbase.Tane.fds t in
  let r = Enclave.discover t in
  Alcotest.(check string) "enclave sort" (pp_fds expect) (pp_fds r.Protocol.fds)

let test_enclave_partition () =
  let t = random_table ~seed:6 ~n:50 ~m:3 ~domain:4 () in
  let x = Attrset.of_list [ 0; 1 ] in
  let expect = Fdbase.Partition.cardinality (Fdbase.Partition.of_table t x) in
  let card, dt = Enclave.partition_cardinality t x in
  Alcotest.(check int) "cardinality" expect card;
  Alcotest.(check bool) "time positive" true (dt >= 0.0)

let test_sort_method_networks_agree () =
  let t = random_table ~seed:12 ~n:40 ~m:3 ~domain:4 () in
  let x = Attrset.of_list [ 0; 2 ] in
  let expect = Fdbase.Partition.cardinality (Fdbase.Partition.of_table t x) in
  let session = Session.create ~n:40 ~m:3 () in
  let db = Enc_db.outsource session t in
  let run network =
    let h1 = Sort_method.single ~network db 0 in
    let h2 = Sort_method.single ~network db 2 in
    Sort_method.cardinality (Sort_method.combine ~network session x h1 h2)
  in
  Alcotest.(check int) "bitonic" expect (run Sort_method.Bitonic);
  Alcotest.(check int) "odd-even-merge" expect (run Sort_method.Odd_even_merge)

let test_sort_labels_preserve_partition () =
  (* The label array of Sort must induce the same partition as plaintext. *)
  let t = random_table ~seed:13 ~n:30 ~m:2 ~domain:3 () in
  let session = Session.create ~n:30 ~m:2 () in
  let db = Enc_db.outsource session t in
  let h = Sort_method.single db 0 in
  let labels = Sort_method.labels h in
  let col = Table.column t 0 in
  for i = 0 to 29 do
    for j = 0 to 29 do
      Alcotest.(check bool)
        (Printf.sprintf "rows %d,%d" i j)
        (Value.equal col.(i) col.(j))
        (labels.(i) = labels.(j))
    done
  done

let test_or_oram_labels_preserve_partition () =
  let t = random_table ~seed:14 ~n:25 ~m:2 ~domain:3 () in
  let session = Session.create ~n:25 ~m:2 () in
  let db = Enc_db.outsource session t in
  let h = Or_oram_method.single db 1 in
  let col = Table.column t 1 in
  let labels = Array.init 25 (fun row -> Or_oram_method.label_of_row h ~row) in
  for i = 0 to 24 do
    for j = 0 to 24 do
      Alcotest.(check bool)
        (Printf.sprintf "rows %d,%d" i j)
        (Value.equal col.(i) col.(j))
        (labels.(i) = labels.(j))
    done
  done

let test_string_values_supported () =
  let t = Datasets.Examples.employee () in
  let x = Schema.attrset_of_names (Table.schema t) [ "Position" ] in
  let expect = Fdbase.Partition.cardinality (Fdbase.Partition.of_table t x) in
  List.iter
    (fun m ->
      let got, _ = Protocol.partition_cardinality m t x in
      Alcotest.(check int) (Protocol.method_name m) expect got)
    methods

let ceil_div a d = (a + d - 1) / d

let sort_passes net_of length =
  Osort.Network.passes (net_of length) ~block:Sort_backend.buffer_slots

(* The slots per read frame of a slice of a pass: whole components,
   in order, as many as fit in B slots. *)
let pass_frames components =
  let full, last =
    Array.fold_left
      (fun (full, size) { Osort.Network.slots; _ } ->
        let k = Array.length slots in
        if size + k > Sort_backend.buffer_slots then (size :: full, k) else (full, size + k))
      ([], 0) components
  in
  List.rev (if last > 0 then last :: full else full)

let test_parallel_sort_method () =
  let t = random_table ~seed:15 ~n:64 ~m:2 ~domain:5 () in
  let session = Session.create ~n:64 ~m:2 () in
  let db = Enc_db.outsource session t in
  (* Tracing off during multi-domain execution. *)
  Servsim.Trace.set_enabled (Session.trace session) false;
  let h = Sort_method.single ~domains:4 db 0 in
  let expect =
    Fdbase.Partition.cardinality (Fdbase.Partition.of_column (Table.column t 0))
  in
  Alcotest.(check int) "parallel cardinality" expect (Sort_method.cardinality h);
  (* Each worker packs its share of a pass's components into frames of
     at most B slots.  At n = 256 the last pass has 32 components of 8
     slots, not a multiple of 3: the shares (11, 11, 10) end in short
     frames, and the 64-slot passes' 4 components leave worker 2 idle. *)
  let n = 256 and domains = 3 in
  let t = random_table ~seed:16 ~n ~m:1 ~domain:7 () in
  let db = Enc_db.outsource (Session.create ~n ~m:1 ()) t in
  let batches = Array.make domains [] in
  let recording ~n =
    let b = Sort_backend.enclave ~n in
    {
      b with
      Sort_backend.worker =
        (fun k ->
          let io = b.Sort_backend.worker k in
          {
            io with
            Sort_backend.fetch =
              (fun slots ->
                batches.(k) <- List.length slots :: batches.(k);
                io.Sort_backend.fetch slots);
          });
    }
  in
  let seq = Sort_method.single ~backend:(fun ~n -> Sort_backend.enclave ~n) db 0 in
  let par = Sort_method.single ~domains ~backend:recording db 0 in
  Alcotest.(check (array int)) "3 domains: labels" (Sort_method.labels seq) (Sort_method.labels par);
  Array.iteri
    (fun k sizes ->
      let expect =
        List.concat_map
          (fun { Osort.Network.components; _ } ->
            let len = Array.length components in
            let share = (len + domains - 1) / domains in
            let lo = min len (k * share) and hi = min len ((k + 1) * share) in
            pass_frames (Array.sub components lo (hi - lo)))
          (Array.to_list (sort_passes Osort.Network.bitonic n))
      in
      (* Two network runs: by key, then by id. *)
      Alcotest.(check (list int))
        (Printf.sprintf "3 domains: worker %d read batches" k)
        (expect @ expect) (List.rev sizes))
    batches;
  (* [combine]'s load writes are held when its first parallel sort
     starts: they must reach the array before the workers read it. *)
  let n = 100 in
  let t = random_table ~seed:17 ~n ~m:2 ~domain:6 () in
  let x = Attrset.of_list [ 0; 1 ] in
  let run domains =
    let session = Session.create ~n ~m:2 () in
    let db = Enc_db.outsource session t in
    Servsim.Trace.set_enabled (Session.trace session) false;
    let h1 = Sort_method.single ~domains db 0 and h2 = Sort_method.single ~domains db 1 in
    Sort_method.combine ~domains session x h1 h2
  in
  let seq = run 1 and par = run 4 in
  Alcotest.(check int) "combine: parallel cardinality"
    (Fdbase.Partition.cardinality (Fdbase.Partition.of_table t x))
    (Sort_method.cardinality par);
  Alcotest.(check (array int)) "combine: 4 domains: labels" (Sort_method.labels seq)
    (Sort_method.labels par)

(* Every ciphertext a session's sorts leave on the server carries an IV
   of its own, in the parallel mode (Fig. 6a) too: the worker ciphers
   must not replay one IV stream from one sort to the next.  At n = 128
   every pass has at least two components, so both workers encrypt. *)
let test_sort_ivs_not_repeated () =
  let t = random_table ~seed:15 ~n:128 ~m:2 ~domain:5 () in
  List.iter
    (fun domains ->
      let session = Session.create ~n:128 ~m:2 () in
      let db = Enc_db.outsource session t in
      Servsim.Trace.set_enabled (Session.trace session) false;
      ignore (Sort_method.single ~domains db 0);
      ignore (Sort_method.single ~domains db 1);
      let server = session.Session.server in
      let seen = Hashtbl.create 256 and repeated = ref 0 in
      List.iter
        (fun name ->
          if String.starts_with ~prefix:"sort-" name then begin
            let st = Servsim.Server.find_store server name in
            for i = 0 to Servsim.Block_store.length st - 1 do
              let iv = String.sub (Servsim.Block_store.read st i) 0 16 in
              if Hashtbl.mem seen iv then incr repeated else Hashtbl.add seen iv ()
            done
          end)
        (Servsim.Server.store_names server);
      Alcotest.(check int) "ciphertexts inspected" 256 (Hashtbl.length seen + !repeated);
      Alcotest.(check int) (Printf.sprintf "%d domain(s): repeated IVs" domains) 0 !repeated)
    [ 1; 2 ]

(* Worker domains would race on the shared trace and cost ledger, and
   would interleave frames on one socket: such parallel sorts are refused
   before any worker starts. *)
let test_parallel_sort_refused () =
  let t = random_table ~seed:15 ~n:16 ~m:2 ~domain:5 () in
  let refused db =
    match Sort_method.single ~domains:2 db 0 with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  let session = Session.create ~n:16 ~m:2 () in
  Alcotest.(check bool) "traced session refused" true
    (refused (Enc_db.outsource session t));
  Suite_remote.with_remote (fun conn ->
      let session = Session.create ~remote:conn ~n:16 ~m:2 () in
      let db = Enc_db.outsource session t in
      Servsim.Trace.set_enabled (Session.trace session) false;
      Alcotest.(check bool) "remote session refused" true (refused db))

(* {2 Sort frames and client memory} *)

let trips session = (Servsim.Cost.snapshot (Session.cost session)).Servsim.Cost.round_trips

(* A Sort call costs one frame per read batch: a network run reads each
   pass in frames of whole components, at most B slots each — for
   bitonic ⌈length/B⌉ frames per pass; the column read, the relabelling
   scan and label reads move at most B slots per frame, and combine
   reads W rows of both generators per frame.  Each frame also carries
   the write batch before it, and a puts-only frame ends the call.  A
   load chunk of pads only (past row n) reads nothing: the batch before
   it goes in a puts-only frame, so the client never holds two.  Sizes
   include n below W, between W and B, at B, and past it with pads, in
   chunks of rows and pads (100) and in pad-only chunks too (65: one of
   W pads; 130: one of B, three of W). *)
let test_sort_frame_count () =
  let w = Sort_backend.chunk_width and b = Sort_backend.buffer_slots in
  List.iter
    (fun (network, net_of) ->
      List.iter
        (fun n ->
          let length = Osort.Network.ceil_pow2 n in
          let passes = sort_passes net_of length in
          let network_reads =
            Array.fold_left
              (fun acc { Osort.Network.components; _ } ->
                acc + List.length (pass_frames components))
              0 passes
          in
          if network = Sort_method.Bitonic then
            Alcotest.(check int)
              (Printf.sprintf "bitonic n = %d: ⌈length/B⌉ frames per pass" n)
              (Array.length passes * ceil_div length b)
              network_reads;
          (* Store creation and the closing puts-only frame; then two
             network runs (by key, by id) around the scan. *)
          let setup = 1 and last = 1 and sort = (2 * network_reads) + ceil_div n b in
          let t = random_table ~seed:n ~n ~m:2 ~domain:5 () in
          let session = Session.create ~n ~m:2 () in
          let db = Enc_db.outsource session t in
          let label = Printf.sprintf "n = %d, %d passes" n (Array.length passes) in
          let pads_only width = ceil_div length width - ceil_div n width in
          let t0 = trips session in
          let h1 = Sort_method.single ~network db 0 in
          (* The column read, B cells per frame. *)
          Alcotest.(check int) (label ^ ": single")
            (setup + ceil_div n b + pads_only b + sort + last)
            (trips session - t0);
          let h2 = Sort_method.single ~network db 1 in
          let t1 = trips session in
          ignore (Sort_method.combine ~network session (Attrset.of_list [ 0; 1 ]) h1 h2);
          Alcotest.(check int) (label ^ ": combine")
            (setup + ceil_div n w + pads_only w + sort + last)
            (trips session - t1))
        [ 16; 24; 64; 65; 100; 130 ])
    [ (Sort_method.Bitonic, Osort.Network.bitonic);
      (Sort_method.Odd_even_merge, Osort.Network.odd_even_merge) ]

(* Two Sort discoveries in one process, their calls interleaved frame
   by frame: each call's write-behind batch is its own, so each
   session's FDs, digests and round trips are those of a run alone. *)
type _ Effect.t += Yield : unit Effect.t

(* Run [jobs] as coroutines, switching at every [Yield]. *)
let interleave jobs =
  let ready = Queue.create () in
  let start job () =
    Effect.Deep.match_with job ()
      {
        retc = Fun.id;
        exnc = raise;
        effc =
          (fun (type a) (e : a Effect.t) ->
            match e with
            | Yield ->
                Some
                  (fun (k : (a, unit) Effect.Deep.continuation) ->
                    Queue.push (fun () -> Effect.Deep.continue k ()) ready)
            | _ -> None);
      }
  in
  List.iter (fun job -> Queue.push (start job) ready) jobs;
  while not (Queue.is_empty ready) do
    (Queue.pop ready) ()
  done

let test_sort_sessions_interleaved () =
  (* The encrypted backend, switching to the other session before each
     frame that reads the array, while the call holds the write batch
     that frame is to carry. *)
  let yielding session ~n =
    let b = Sort_backend.encrypted session ~n in
    let fetch slots =
      Effect.perform Yield;
      b.Sort_backend.io.Sort_backend.fetch slots
    in
    { b with Sort_backend.io = { b.Sort_backend.io with Sort_backend.fetch } }
  in
  let job ~seed t out () =
    let n = Table.rows t and m = Table.cols t in
    let session = Session.create ~seed ~n ~m () in
    let db = Enc_db.outsource session t in
    let r =
      Fdbase.Lattice.discover ~m ~n ~check:(Set_level.check session)
        (Sort_method.oracle ~backend:(yielding session) session db)
    in
    let tr = Session.trace session in
    out :=
      Some
        ( pp_fds r.Fdbase.Lattice.fds,
          Servsim.Trace.full_digest tr,
          Servsim.Trace.shape_digest tr,
          trips session )
  in
  let ta = random_table ~seed:31 ~n:24 ~m:3 ~domain:4 ()
  and tb = random_table ~seed:32 ~n:40 ~m:4 ~domain:3 () in
  let alone_a = ref None and alone_b = ref None in
  interleave [ job ~seed:1 ta alone_a ];
  interleave [ job ~seed:2 tb alone_b ];
  let a = ref None and b = ref None in
  interleave [ job ~seed:1 ta a; job ~seed:2 tb b ];
  let check name alone got =
    match (!alone, !got) with
    | Some (fds, full, shape, trips), Some (fds', full', shape', trips') ->
        Alcotest.(check string) (name ^ ": FDs") fds fds';
        Alcotest.(check int64) (name ^ ": full digest") full full';
        Alcotest.(check int64) (name ^ ": shape digest") shape shape';
        Alcotest.(check int) (name ^ ": round trips") trips trips'
    | _ -> Alcotest.fail (name ^ ": a discovery did not finish")
  in
  check "session A" alone_a a;
  check "session B" alone_b b

(* A Sort call holds one buffer of at most B decrypted elements per
   working domain, whatever the number of label arrays the lattice keeps
   on the server; nothing stays charged between calls. *)
let test_sort_client_memory () =
  let buffer length =
    (min Sort_backend.buffer_slots length * Sort_backend.elt_width) + 16
  in
  List.iter
    (fun n ->
      let t = random_table ~seed:n ~n ~m:4 ~domain:3 () in
      let r = Protocol.discover Protocol.Sort t in
      let c = r.Protocol.cost in
      Alcotest.(check int) (Printf.sprintf "n = %d: discovery peak" n)
        (buffer (Osort.Network.ceil_pow2 n)) c.Servsim.Cost.client_peak_bytes;
      Alcotest.(check int) (Printf.sprintf "n = %d: nothing charged after" n) 0
        c.Servsim.Cost.client_current_bytes)
    [ 24; 100; 130 ];
  let t = random_table ~seed:3 ~n:100 ~m:3 ~domain:3 () in
  let session = Session.create ~n:100 ~m:3 () in
  let db = Enc_db.outsource session t in
  let held = List.init 3 (fun col -> Sort_method.single db col) in
  let c = Servsim.Cost.snapshot (Session.cost session) in
  Alcotest.(check int) "three live arrays: one buffer" (buffer 128) c.Servsim.Cost.client_peak_bytes;
  List.iter Sort_method.release held;
  Servsim.Trace.set_enabled (Session.trace session) false;
  ignore (Sort_method.single ~domains:3 db 0);
  let c = Servsim.Cost.snapshot (Session.cost session) in
  Alcotest.(check int) "3 domains: three buffers" (3 * buffer 128) c.Servsim.Cost.client_peak_bytes;
  Alcotest.(check int) "released after the call" 0 c.Servsim.Cost.client_current_bytes

(* {2 ORAM frames per call}: a partition call over k rows runs one row
   schedule of k + 2 frames (a lookup frame before the first row, one
   frame per row, a puts-only frame after the last) behind its two
   trees' setup, a [Create_store] frame and a dummy upload each.  A
   streaming insert stages every retained set by |X|, one frame per
   stage plus a puts-only frame: max|X| + 1 frames. *)
let test_oram_frame_count () =
  let setup = 4 in
  List.iter
    (fun n ->
      let t = random_table ~seed:n ~n ~m:2 ~domain:5 () in
      let check name single combine =
        let session = Session.create ~n ~m:2 () in
        let db = Enc_db.outsource session t in
        let t0 = trips session in
        let h1 = single db 0 in
        let t1 = trips session in
        Alcotest.(check int) (Printf.sprintf "%s n = %d: single" name n) (setup + n + 2) (t1 - t0);
        let h2 = single db 1 in
        let t2 = trips session in
        ignore (combine session (Attrset.of_list [ 0; 1 ]) h1 h2);
        Alcotest.(check int)
          (Printf.sprintf "%s n = %d: combine" name n)
          (setup + n + 2)
          (trips session - t2)
      in
      check "Or-ORAM" Or_oram_method.single Or_oram_method.combine;
      check "Ex-ORAM"
        (fun db col -> Ex_oram_method.single db col)
        (fun session x h1 h2 -> Ex_oram_method.combine session x h1 h2))
    [ 1; 2; 24; 64; 100 ];
  let t = random_table ~seed:5 ~n:24 ~m:3 ~domain:3 () in
  let d = Dynamic.start ~seed:5 t in
  let retained =
    List.filter
      (fun x -> Dynamic.cardinality d x <> None)
      (List.map Attrset.of_list [ [ 0 ]; [ 1 ]; [ 2 ]; [ 0; 1 ]; [ 0; 2 ]; [ 1; 2 ]; [ 0; 1; 2 ] ])
  in
  let frames = 1 + List.fold_left (fun acc x -> max acc (Attrset.cardinal x)) 0 retained in
  let session = Dynamic.session d in
  let t0 = trips session in
  ignore (Dynamic.insert d [| Value.Int 1; Value.Int 2; Value.Int 0 |]);
  Alcotest.(check int)
    (Printf.sprintf "Dynamic.insert over %d retained sets" (List.length retained))
    frames (trips session - t0);
  Dynamic.release d

(* {2 Sort bit-identity pins}: trace digests, ledger and ciphertext
      content of a whole Sort discovery and of one single-attribute sort
      plus label reads.  Walking network stages in chunks of W
      comparators left event counts, bytes and ciphertexts as they were
      under one frame pair per comparator; only the trips and the event
      order (so the full and shape digests) changed.  Dropping the pad
      upload that every fresh array began with then removed one frame
      and [length] block writes per array, and shifted the IV stream.
      Reading the column B cells per frame, not one, left everything
      but the trips as it was, and so did sending each write batch in
      the frame of the next read (480 → 259 and 91 → 60 trips).
      Running each network pass by pass, every stage of a pass on a
      frame of whole components in the client's buffer, moved
      everything but the labels and the database: at n = 24 both
      networks are one pass of 15 stages (259 → 63 and 60 → 32 trips,
      events 14336 → 1792 and 2120 → 328).
      A discovery releases every Sort array, so its content pin covers
      the encrypted database only. *)

let golden_table () = random_table ~seed:21 ~n:24 ~m:3 ~domain:4 ()

(* One pinned discovery of [golden_table], through [Protocol.discover]
   and again step by step ([run] drives the lattice over the method's
   oracle), to reach the stores it leaves behind. *)
let check_golden_discover method_ ~run ~full ~shape ~count ~to_server ~to_client ~trips
    ~content =
  let t = golden_table () in
  let r = Protocol.discover ~seed:4242 method_ t in
  Alcotest.(check int64) "report full digest" full r.Protocol.trace_full;
  Alcotest.(check int64) "report shape digest" shape r.Protocol.trace_shape;
  Alcotest.(check int) "report event count" count r.Protocol.trace_count;
  Alcotest.(check int) "report bytes to server" to_server
    r.Protocol.cost.Servsim.Cost.bytes_to_server;
  Alcotest.(check int) "report bytes to client" to_client
    r.Protocol.cost.Servsim.Cost.bytes_to_client;
  Alcotest.(check int) "report round trips" trips r.Protocol.cost.Servsim.Cost.round_trips;
  let session = Session.create ~seed:4242 ~n:24 ~m:3 () in
  let db = Enc_db.outsource session t in
  run session db;
  Suite_oram.check_golden session.Session.server ~full ~shape ~count ~to_server
    ~to_client ~trips ~content

let discover_with oracle session db =
  ignore
    (Fdbase.Lattice.discover ~m:3 ~n:24 ~check:(Set_level.check session) (oracle session db))

let test_golden_sort_discover () =
  check_golden_discover Protocol.Sort ~run:(discover_with (fun s d -> Sort_method.oracle s d))
    ~full:0x80dc8c0a7cfb0e2dL ~shape:0x09f6587ad7a48515L ~count:1792 ~to_server:57228
    ~to_client:55936 ~trips:63 ~content:"daf292f653fffdfc8141b9b665f97c39"

(* The ORAM methods' discovery pins: their digests, event counts, bytes
   and ciphertexts are fixed by the access schedule of Algorithms 1, 2
   and 4 and by the session seed.  Fusing each row's key-ORAM read and
   write into one access dropped one path read and write per row, and
   the one-frame-per-row schedule moved the frames, the event order and
   the draws of the session's randomness; the encrypted database, and
   so the content pin, did not move.  Storing one ciphertext per ORAM
   bucket instead of one per slot cut the ORAM accesses' events by
   Z = 4 and moved the digests and bytes, but not the trips. *)
let test_golden_or_oram_discover () =
  check_golden_discover Protocol.Or_oram ~run:(discover_with Or_oram_method.oracle)
    ~full:0xe4e319753a914296L ~shape:0xa8f346de177bd21cL ~count:7362 ~to_server:432012
    ~to_client:336000 ~trips:238 ~content:"daf292f653fffdfc8141b9b665f97c39"

let test_golden_ex_oram_discover () =
  check_golden_discover Protocol.Ex_oram ~run:(discover_with Ex_oram_method.oracle)
    ~full:0x58af511c14afe05bL ~shape:0x2dbd04d017ee8489L ~count:7362 ~to_server:656652
    ~to_client:520320 ~trips:238 ~content:"daf292f653fffdfc8141b9b665f97c39"

let test_golden_sort_single () =
  let t = golden_table () in
  let session = Session.create ~seed:4243 ~n:24 ~m:3 () in
  let db = Enc_db.outsource session t in
  let h = Sort_method.single db 1 in
  Alcotest.(check (list int)) "labels"
    [ 3; 1; 1; 3; 3; 0; 3; 3; 1; 2; 1; 1; 1; 3; 1; 2; 3; 1; 2; 1; 3; 3; 3; 3 ]
    (List.init 24 (fun row -> Sort_method.label_of_row h ~row));
  Suite_oram.check_golden session.Session.server ~full:0x28a59d928224868dL
    ~shape:0x44ed8aa69df7fce5L ~count:328 ~to_server:11136 ~to_client:8320 ~trips:32
    ~content:"54d25f367fd83696f9315ed27ff0bb5d"

let test_lattice_releases_storage () =
  (* The lattice releases pruned/used handles; after discovery the server
     holds little beyond the encrypted database itself. *)
  let t = random_table ~seed:17 ~n:24 ~m:4 ~domain:3 () in
  let session = Session.create ~n:24 ~m:4 () in
  let db = Enc_db.outsource session t in
  ignore db;
  let db_bytes = Servsim.Server.total_bytes session.Session.server in
  ignore (Fdbase.Lattice.discover ~m:4 ~n:24 (Or_oram_method.oracle session db));
  let after = Servsim.Server.total_bytes session.Session.server in
  Alcotest.(check bool)
    (Printf.sprintf "after %dB <= db %dB (all ORAMs released)" after db_bytes)
    true (after <= db_bytes)

let test_cost_report_sane () =
  let t = random_table ~seed:16 ~n:32 ~m:3 ~domain:4 () in
  let r = Protocol.discover Protocol.Sort t in
  Alcotest.(check bool) "bytes moved" true (r.Protocol.cost.Servsim.Cost.bytes_to_client > 0);
  Alcotest.(check bool) "round trips" true (r.Protocol.cost.Servsim.Cost.round_trips > 0);
  Alcotest.(check bool) "elapsed positive" true (r.Protocol.elapsed_s > 0.0);
  Alcotest.(check bool) "trace nonempty" true (r.Protocol.trace_count > 0)

let suite =
  [
    Alcotest.test_case "partition |X|=1 = plaintext" `Quick test_partition_cardinality_single;
    Alcotest.test_case "partition |X|=2 = plaintext" `Quick test_partition_cardinality_pairs;
    Alcotest.test_case "partition |X|=3 = plaintext" `Quick test_partition_cardinality_triple;
    Alcotest.test_case "discover = TANE on Fig. 1" `Quick test_discover_fig1;
    Alcotest.test_case "discover = TANE on employee" `Quick test_discover_employee;
    Alcotest.test_case "discover = TANE on random tables" `Slow test_discover_random_matches_tane;
    Alcotest.test_case "discover = TANE on dataset samples" `Slow test_discover_dataset_samples;
    Alcotest.test_case "enclave discover = TANE" `Quick test_enclave_matches_tane;
    Alcotest.test_case "enclave partition" `Quick test_enclave_partition;
    Alcotest.test_case "bitonic = odd-even-merge results" `Quick test_sort_method_networks_agree;
    Alcotest.test_case "sort labels preserve partition" `Quick test_sort_labels_preserve_partition;
    Alcotest.test_case "or-oram labels preserve partition" `Quick test_or_oram_labels_preserve_partition;
    Alcotest.test_case "string values supported" `Quick test_string_values_supported;
    Alcotest.test_case "parallel sort method" `Quick test_parallel_sort_method;
    Alcotest.test_case "no repeated IV across sort stores" `Quick test_sort_ivs_not_repeated;
    Alcotest.test_case "unsafe parallel sorts refused" `Quick test_parallel_sort_refused;
    Alcotest.test_case "sort frames per pass" `Quick test_sort_frame_count;
    Alcotest.test_case "sort sessions interleaved" `Quick test_sort_sessions_interleaved;
    Alcotest.test_case "sort client memory is one buffer" `Quick test_sort_client_memory;
    Alcotest.test_case "oram frames per call" `Quick test_oram_frame_count;
    Alcotest.test_case "sort discover pins" `Quick test_golden_sort_discover;
    Alcotest.test_case "or-oram discover pins" `Quick test_golden_or_oram_discover;
    Alcotest.test_case "ex-oram discover pins" `Quick test_golden_ex_oram_discover;
    Alcotest.test_case "sort single + label_of_row pins" `Quick test_golden_sort_single;
    Alcotest.test_case "lattice releases storage" `Quick test_lattice_releases_storage;
    Alcotest.test_case "cost report sane" `Quick test_cost_report_sane;
  ]
