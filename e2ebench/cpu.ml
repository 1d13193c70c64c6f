(* The clock under every end-to-end timing: CPU time, which [Host] then
   scales to reference speed.

   A timing is the CPU time that this process and the daemons it
   started spend on one unit of work.  Client and daemon run on one
   pinned CPU and take turns (see [Daemon]), so with nothing else on the
   machine this is the wall time a user waits, minus time blocked on the
   disk.  On a shared host it leaves out what wall time picks up from
   other tenants: time the hypervisor runs other guests (steal) and
   time other processes hold the CPU.  Such interference comes and goes
   for minutes at a time and moves wall time by up to 2x between runs
   of the same code. *)

external pin_one : unit -> int = "e2ebench_pin_one_cpu"
external process_ns : int -> int = "e2ebench_cpu_ns"

let process_s pid =
  let ns = process_ns pid in
  if ns < 0 then failwith (Printf.sprintf "cannot read the CPU clock of process %d" pid);
  float_of_int ns *. 1e-9

(* CPU seconds so far of this process, its reaped children, and the
   live processes [live].  A daemon read live before a unit of work and
   reaped during it is counted once: its time moves from [live] into
   the children's. *)
let now ?(live = []) () =
  let t = Unix.times () in
  List.fold_left (fun acc pid -> acc +. process_s pid) (process_s 0 +. t.tms_cutime +. t.tms_cstime) live
