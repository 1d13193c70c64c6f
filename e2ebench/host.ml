(* The host-speed reference.

   CPU time (see [Cpu]) leaves out the time other tenants hold the
   machine, but not a host that runs every instruction slower for a
   while: a busy sibling hyperthread, a shared cache.  On a 2-core
   shared VM a fixed loop's CPU time switched between two levels, 40% to
   100% apart, every 0.5 to 3 s, and ten runs of a workload spread up to
   40% in CPU time (p25 to p75, as a share of the median).

   So a small fixed kernel samples the host's speed all through each
   measured repetition: a wall-clock timer interrupts the benchmark
   every [interval_s], whatever it is doing (computing, or blocked on a
   reply from its daemon on the same CPU), and the handler times one run
   of the kernel.  The repetition's speed is the kernel's reference time
   over its mean sampled time, and every end-to-end timing is given at
   reference speed: CPU seconds, less the samples' own, times the
   speed.  That reads as CPU seconds on a host where the kernel takes
   [nominal_s], about the speed of that VM when it is quiet.

   The kernel follows the workloads' mix (T-table cipher rounds on a
   byte buffer, fresh strings, a hash table of them) and calls nothing
   outside this directory, so no change to the program moves it. *)

let interval_s = 0.02
let nominal_s = 0.00055

let table = Array.init 1024 (fun i -> (i * 0x9E3779B1) lxor (i lsl 13) land 0xffffffff)

let round a b c d =
  table.(a land 255)
  lxor table.(256 + ((b lsr 8) land 255))
  lxor table.(512 + ((c lsr 16) land 255))
  lxor table.(768 + ((d lsr 24) land 255))

let kernel () =
  let store = Hashtbl.create 64 in
  let buf = Bytes.make 1024 '\001' in
  let word o = Int32.to_int (Bytes.get_int32_le buf o) land 0xffffffff in
  let acc = ref 0 in
  for it = 0 to 59 do
    for b = 0 to 63 do
      let o = 16 * b in
      let s0 = ref (word o lxor it) and s1 = ref (word (o + 4)) in
      let s2 = ref (word (o + 8)) and s3 = ref (word (o + 12)) in
      for r = 1 to 10 do
        let n0 = round !s0 !s1 !s2 !s3 lxor r and n1 = round !s1 !s2 !s3 !s0 in
        let n2 = round !s2 !s3 !s0 !s1 and n3 = round !s3 !s0 !s1 !s2 in
        s0 := n0;
        s1 := n1;
        s2 := n2;
        s3 := n3
      done;
      Bytes.set_int32_le buf o (Int32.of_int !s0);
      Bytes.set_int32_le buf (o + 4) (Int32.of_int !s1);
      Bytes.set_int32_le buf (o + 8) (Int32.of_int !s2);
      Bytes.set_int32_le buf (o + 12) (Int32.of_int !s3)
    done;
    let key = it * 7 land 31 in
    Option.iter (fun old -> acc := !acc + Char.code old.[it land 1023]) (Hashtbl.find_opt store key);
    Hashtbl.replace store key (Bytes.sub_string buf 0 1024)
  done;
  !acc

(* {2 Sampling} *)

type state = {
  mutable active : bool;
  mutable busy : bool;  (** a sample is running: a late tick skips *)
  mutable samples : int;
  mutable sampled_s : float;  (** CPU seconds of all samples so far *)
}

let st = { active = false; busy = false; samples = 0; sampled_s = 0. }

let tick _ =
  if st.active && not st.busy then begin
    st.busy <- true;
    let t0 = Cpu.process_s 0 in
    ignore (Sys.opaque_identity (kernel ()));
    st.sampled_s <- st.sampled_s +. (Cpu.process_s 0 -. t0);
    st.samples <- st.samples + 1;
    st.busy <- false
  end

(* CPU seconds so far of this process and the live processes [live],
   as [Cpu.now], less the samples'; read again if a sample ran in
   between. *)
let rec cpu_now ?live () =
  let s = st.sampled_s in
  let c = Cpu.now ?live () in
  if st.sampled_s = s then c -. s else cpu_now ?live ()

(* [f ()], and the CPU seconds it took, [live] included, less the
   samples'. *)
let cpu_timed ?live f =
  let c0 = cpu_now ?live () in
  let v = f () in
  (v, cpu_now ?live () -. c0)

let timer v = ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = v; it_value = v })

(* [f ()] and the host's speed while it ran, relative to reference
   speed.  Blocking calls in [f] see EINTR: the program's client retries
   them, and so must [f]. *)
let sampled f =
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle tick);
  let n0 = st.samples and s0 = st.sampled_s in
  st.active <- true;
  timer interval_s;
  let v =
    Fun.protect
      ~finally:(fun () ->
        timer 0.;
        st.active <- false)
      f
  in
  (* A run shorter than one interval gets one sample, after it. *)
  if st.samples = n0 then begin
    st.active <- true;
    tick 0;
    st.active <- false
  end;
  (v, nominal_s /. ((st.sampled_s -. s0) /. float_of_int (st.samples - n0)))
