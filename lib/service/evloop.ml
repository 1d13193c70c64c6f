(* The one module allowed to speak raw readiness syscalls (fdlint R10).
   See evloop.mli for the contract and evloop_stubs.c for the C side. *)

type backend = Select | Poll | Epoll

let all = [ Select; Poll; Epoll ]

external have_poll : unit -> bool = "sfdd_ev_have_poll"
external have_epoll : unit -> bool = "sfdd_ev_have_epoll"

external poll_raw : int array -> int array -> int array -> int -> int -> int
  = "sfdd_ev_poll"

external epoll_create_raw : unit -> int = "sfdd_ev_epoll_create"
external epoll_ctl_raw : int -> int -> int -> int -> unit = "sfdd_ev_epoll_ctl"
external epoll_wait_raw : int -> int array -> int array -> int -> int = "sfdd_ev_epoll_wait"

(* On Unix a [file_descr] is the int itself; the readiness stubs speak
   raw descriptor numbers, so this module views one as the other. *)
external fd_int : Unix.file_descr -> int = "%identity"
external int_fd : int -> Unix.file_descr = "%identity"

let compiled_in = function Select -> true | Poll -> have_poll () | Epoll -> have_epoll ()
let available () = List.filter compiled_in all
let best () = if have_epoll () then Epoll else if have_poll () then Poll else Select
let to_string = function Select -> "select" | Poll -> "poll" | Epoll -> "epoll"

let of_string = function
  | "auto" -> Ok (best ())
  | "select" -> Ok Select
  | "poll" -> if have_poll () then Ok Poll else Error "poll backend not compiled in"
  | "epoll" -> if have_epoll () then Ok Epoll else Error "epoll backend not compiled in"
  | s -> Error (Printf.sprintf "unknown backend %S (expected auto|select|poll|epoll)" s)

(* Event bits, shared with the C stubs. *)
let ev_read = 1
let ev_write = 2
let fd_setsize = 1024

type t = {
  backend : backend;
  epfd : int; (* epoll instance; -1 for other backends *)
  slots : (int, int) Hashtbl.t; (* fd -> index into the dense arrays *)
  (* Dense registration arrays, kept in sync by add/set/remove.  The
     poll backend hands them to poll(2) directly; select rebuilds its
     two lists from them; epoll only uses them as bookkeeping. *)
  mutable fds : int array;
  mutable interest : int array;
  mutable scratch : int array; (* poll revents out-array, same capacity *)
  mutable n : int;
  (* Ready-set of the last [wait], exposed via the indexed accessors. *)
  mutable r_fds : int array;
  mutable r_evs : int array;
  mutable r_n : int;
}

let backend t = t.backend
let fd_count t = t.n
let mem t fd = Hashtbl.mem t.slots (fd_int fd)

let create backend =
  if not (compiled_in backend) then
    invalid_arg ("Evloop.create: backend not compiled in: " ^ to_string backend);
  let epfd = match backend with Epoll -> epoll_create_raw () | Select | Poll -> -1 in
  {
    backend;
    epfd;
    slots = Hashtbl.create 64;
    fds = Array.make 64 (-1);
    interest = Array.make 64 0;
    scratch = Array.make 64 0;
    n = 0;
    r_fds = Array.make 64 (-1);
    r_evs = Array.make 64 0;
    r_n = 0;
  }

let close t =
  if t.epfd >= 0 then (try Unix.close (int_fd t.epfd) with Unix.Unix_error _ -> ());
  Hashtbl.reset t.slots;
  t.n <- 0;
  t.r_n <- 0

let compatible t fd =
  match t.backend with Select -> fd_int fd < fd_setsize | Poll | Epoll -> true

let bits ~read ~write = (if read then ev_read else 0) lor (if write then ev_write else 0)

let grow t =
  let cap = Array.length t.fds * 2 in
  let fds = Array.make cap (-1) and interest = Array.make cap 0 in
  Array.blit t.fds 0 fds 0 t.n;
  Array.blit t.interest 0 interest 0 t.n;
  t.fds <- fds;
  t.interest <- interest;
  t.scratch <- Array.make cap 0

(* EPOLL_CTL_DEL after the peer vanished can report ENOENT/EBADF; the
   registration is gone either way, which is all remove promises. *)
let epoll_ctl_quiet t op fd bits =
  try epoll_ctl_raw t.epfd op fd bits
  with Unix.Unix_error ((Unix.ENOENT | Unix.EBADF), _, _) when op = 2 -> ()

let rec add t fd ~read ~write =
  let fdi = fd_int fd in
  match Hashtbl.find_opt t.slots fdi with
  | Some _ -> set t fd ~read ~write
  | None ->
      if t.n >= Array.length t.fds then grow t;
      let b = bits ~read ~write in
      t.fds.(t.n) <- fdi;
      t.interest.(t.n) <- b;
      Hashtbl.replace t.slots fdi t.n;
      t.n <- t.n + 1;
      if t.backend = Epoll then epoll_ctl_raw t.epfd 0 fdi b

and set t fd ~read ~write =
  let fdi = fd_int fd in
  match Hashtbl.find_opt t.slots fdi with
  | None -> add t fd ~read ~write
  | Some i ->
      let b = bits ~read ~write in
      if t.interest.(i) <> b then begin
        t.interest.(i) <- b;
        if t.backend = Epoll then epoll_ctl_quiet t 1 fdi b
      end

let remove t fd =
  let fdi = fd_int fd in
  match Hashtbl.find_opt t.slots fdi with
  | None -> ()
  | Some i ->
      if t.backend = Epoll then epoll_ctl_quiet t 2 fdi 0;
      Hashtbl.remove t.slots fdi;
      let last = t.n - 1 in
      if i <> last then begin
        t.fds.(i) <- t.fds.(last);
        t.interest.(i) <- t.interest.(last);
        Hashtbl.replace t.slots t.fds.(i) i
      end;
      t.fds.(last) <- -1;
      t.n <- last

let ensure_ready_cap t cap =
  if Array.length t.r_fds < cap then begin
    let cap = max cap (Array.length t.r_fds * 2) in
    t.r_fds <- Array.make cap (-1);
    t.r_evs <- Array.make cap 0
  end

let push_ready t fd ev =
  ensure_ready_cap t (t.r_n + 1);
  t.r_fds.(t.r_n) <- fd;
  t.r_evs.(t.r_n) <- ev;
  t.r_n <- t.r_n + 1

let timeout_ms timeout =
  if timeout < 0. then -1
  else if timeout = 0. then 0
  else max 1 (int_of_float (Float.ceil (timeout *. 1000.)))

(* [EINTR] is not retried here: it becomes a zero-event round, so a
   signal handler's self-pipe write is picked up by the very next wait
   with freshly computed deadlines — same behavior the select loops
   had, without the backend needing signal awareness. *)
let wait_select t ~timeout =
  let rds = ref [] and wrs = ref [] in
  for i = 0 to t.n - 1 do
    if t.interest.(i) land ev_read <> 0 then rds := int_fd t.fds.(i) :: !rds;
    if t.interest.(i) land ev_write <> 0 then wrs := int_fd t.fds.(i) :: !wrs
  done;
  match Unix.select !rds !wrs [] timeout with
  | rd_ready, wr_ready, _ ->
      List.iter (fun fd -> push_ready t (fd_int fd) ev_read) rd_ready;
      List.iter (fun fd -> push_ready t (fd_int fd) ev_write) wr_ready
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
[@@lint.allow "eintr-discipline"]

let wait_poll t ~timeout =
  match poll_raw t.fds t.interest t.scratch t.n (timeout_ms timeout) with
  | _ready ->
      ensure_ready_cap t t.n;
      for i = 0 to t.n - 1 do
        if t.scratch.(i) <> 0 then begin
          t.r_fds.(t.r_n) <- t.fds.(i);
          t.r_evs.(t.r_n) <- t.scratch.(i);
          t.r_n <- t.r_n + 1
        end
      done
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let wait_epoll t ~timeout =
  (* If the ready set filled completely, level-triggering delivers the
     overflow next round; grow so steady state reports in one batch. *)
  ensure_ready_cap t (max 64 (min t.n 4096));
  match epoll_wait_raw t.epfd t.r_fds t.r_evs (timeout_ms timeout) with
  | n -> t.r_n <- n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let wait t ~timeout =
  t.r_n <- 0;
  (match t.backend with
  | Select -> wait_select t ~timeout
  | Poll -> wait_poll t ~timeout
  | Epoll -> wait_epoll t ~timeout);
  t.r_n

let ready_fd t i = int_fd t.r_fds.(i)
let ready_read t i = t.r_evs.(i) land ev_read <> 0
let ready_write t i = t.r_evs.(i) land ev_write <> 0
