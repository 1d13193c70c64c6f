(* The child daemon of the daemon workloads.

   OCaml 5 forbids [Unix.fork] once domains have run, so the daemon is
   this benchmark binary re-executed with the hidden [daemon] mode: one
   worker loop ([domains = 1]) on the best readiness backend compiled
   in.  It inherits the benchmark's pinning to one CPU ([Cpu.pin_one]):
   client and daemon take turns on one core, so a request's wire cost
   is the CPU it spends (syscalls, context switches, dispatch) and not
   the cross-core wake-up latency, which swings with the load other
   tenants put on the host.  Its socket and data directory live in the
   run's scratch directory inside the working directory; the socket
   path is relative, which keeps it under the Unix-domain path limit
   wherever the checkout is. *)

let main ~sock ~data_dir =
  Dynserve.install ();
  let daemon =
    Service.Daemon.create
      {
        Service.Daemon.default_config with
        unix_path = Some sock;
        max_conns = 64;
        domains = 1;
        backend = Service.Evloop.best ();
        data_dir;
      }
  in
  Service.Daemon.install_stop_signals daemon;
  Service.Daemon.run daemon;
  0

type t = { pid : int; sock : string }

(* The host-speed timer ([Host]) interrupts blocking calls. *)
let rec waitpid pid =
  try Unix.waitpid [] pid with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

let wait_exit pid =
  match snd (waitpid pid) with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c -> failwith (Printf.sprintf "daemon exited %d" c)
  | Unix.WSIGNALED s -> failwith (Printf.sprintf "daemon killed by signal %d" s)
  | Unix.WSTOPPED _ -> failwith "daemon stopped"

(* The daemon writes nothing to stdout; its stdout goes to our stderr
   anyway, so the benchmark's own last stdout line stays the result. *)
let start ~sock ?data_dir () =
  if Sys.file_exists sock then Sys.remove sock;
  let args =
    [| Sys.executable_name; "daemon"; sock; Option.value ~default:"-" data_dir |]
  in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stderr Unix.stderr in
  let deadline = Unix.gettimeofday () +. 30. in
  while not (Sys.file_exists sock) do
    if Unix.gettimeofday () > deadline then begin
      Unix.kill pid Sys.sigkill;
      ignore (waitpid pid);
      failwith "daemon did not come up"
    end;
    Unix.sleepf 0.002
  done;
  { pid; sock }

(* SIGTERM starts the daemon's graceful drain; it exits once its live
   connections are gone, so callers close theirs first. *)
let stop t =
  Unix.kill t.pid Sys.sigterm;
  wait_exit t.pid

let with_daemon ~sock ?data_dir f =
  let d = start ~sock ?data_dir () in
  match f d with
  | v ->
      stop d;
      v
  | exception e ->
      (try stop d with Failure _ | Unix.Unix_error _ -> ());
      raise e

(* The socket file appears at bind time, before [listen]; a connect in
   that window is refused, so retry briefly. *)
let connect ?(tries = 500) t ~namespace =
  let rec go n =
    match Servsim.Remote.connect_unix ~namespace t.sock with
    | conn -> conn
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) when n > 0 ->
        Unix.sleepf 0.002;
        go (n - 1)
  in
  go tries
