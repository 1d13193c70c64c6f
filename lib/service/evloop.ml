(* The one module allowed to speak raw readiness syscalls (fdlint R10).
   See evloop.mli for the contract and evloop_stubs.c for the C side. *)

type backend = Poll

let best () = Poll

external poll_raw : int array -> int array -> int array -> int -> int -> int
  = "sfdd_ev_poll"

(* On Unix a [file_descr] is the int itself; the readiness stub speaks
   raw descriptor numbers, so this module views one as the other. *)
external fd_int : Unix.file_descr -> int = "%identity"
external int_fd : int -> Unix.file_descr = "%identity"

(* Event bits, shared with the C stub. *)
let ev_read = 1
let ev_write = 2

type t = {
  slots : (int, int) Hashtbl.t; (* fd -> index into the dense arrays *)
  (* Dense registration arrays, kept in sync by set/remove and
     handed to poll(2) directly. *)
  mutable fds : int array;
  mutable interest : int array;
  mutable scratch : int array; (* poll revents out-array, same capacity *)
  mutable n : int;
  (* Ready-set of the last [wait], exposed via the indexed accessors. *)
  mutable r_fds : int array;
  mutable r_evs : int array;
  mutable r_n : int;
}

let create () =
  {
    slots = Hashtbl.create 64;
    fds = Array.make 64 (-1);
    interest = Array.make 64 0;
    scratch = Array.make 64 0;
    n = 0;
    r_fds = Array.make 64 (-1);
    r_evs = Array.make 64 0;
    r_n = 0;
  }

let bits ~read ~write = (if read then ev_read else 0) lor (if write then ev_write else 0)

let grow t =
  let cap = Array.length t.fds * 2 in
  let fds = Array.make cap (-1) and interest = Array.make cap 0 in
  Array.blit t.fds 0 fds 0 t.n;
  Array.blit t.interest 0 interest 0 t.n;
  t.fds <- fds;
  t.interest <- interest;
  t.scratch <- Array.make cap 0

let set t fd ~read ~write =
  let fdi = fd_int fd and b = bits ~read ~write in
  match Hashtbl.find_opt t.slots fdi with
  | Some i -> t.interest.(i) <- b
  | None ->
      if t.n >= Array.length t.fds then grow t;
      t.fds.(t.n) <- fdi;
      t.interest.(t.n) <- b;
      Hashtbl.replace t.slots fdi t.n;
      t.n <- t.n + 1

let remove t fd =
  let fdi = fd_int fd in
  match Hashtbl.find_opt t.slots fdi with
  | None -> ()
  | Some i ->
      Hashtbl.remove t.slots fdi;
      let last = t.n - 1 in
      if i <> last then begin
        t.fds.(i) <- t.fds.(last);
        t.interest.(i) <- t.interest.(last);
        Hashtbl.replace t.slots t.fds.(i) i
      end;
      t.fds.(last) <- -1;
      t.n <- last

let timeout_ms timeout =
  if timeout < 0. then -1
  else if timeout = 0. then 0
  else max 1 (int_of_float (Float.ceil (timeout *. 1000.)))

(* [EINTR] is not retried here: it becomes a zero-event round, so a
   signal handler's self-pipe write is picked up by the very next wait
   with freshly computed deadlines. *)
let wait t ~timeout =
  t.r_n <- 0;
  (match poll_raw t.fds t.interest t.scratch t.n (timeout_ms timeout) with
  | _ready ->
      (* Resized here and not in [grow]: [set] runs while the caller is
         still reading the previous ready set. *)
      if Array.length t.r_fds < t.n then begin
        t.r_fds <- Array.make (Array.length t.fds) (-1);
        t.r_evs <- Array.make (Array.length t.fds) 0
      end;
      for i = 0 to t.n - 1 do
        if t.scratch.(i) <> 0 then begin
          t.r_fds.(t.r_n) <- t.fds.(i);
          t.r_evs.(t.r_n) <- t.scratch.(i);
          t.r_n <- t.r_n + 1
        end
      done
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
  t.r_n

let ready_fd t i = int_fd t.r_fds.(i)
let ready_read t i = t.r_evs.(i) land ev_read <> 0
let ready_write t i = t.r_evs.(i) land ev_write <> 0
