type t = {
  mutex : Mutex.t;
  cond : Condition.t;
  parties : int;
  mutable waiting : int;
  mutable phase : int;
  mutable broken : bool;
}

exception Broken

let create parties =
  if parties < 1 then invalid_arg "Barrier.create: parties must be >= 1";
  {
    mutex = Mutex.create ();
    cond = Condition.create ();
    parties;
    waiting = 0;
    phase = 0;
    broken = false;
  }

let wait t =
  let passed =
    Mutex.protect t.mutex (fun () ->
        let phase = t.phase in
        if not t.broken then begin
          t.waiting <- t.waiting + 1;
          if t.waiting = t.parties then begin
            t.waiting <- 0;
            t.phase <- phase + 1;
            Condition.broadcast t.cond
          end
          else
            while t.phase = phase && not t.broken do
              Condition.wait t.cond t.mutex
            done
        end;
        t.phase <> phase)
  in
  if not passed then raise Broken

let break t =
  Mutex.protect t.mutex (fun () ->
      t.broken <- true;
      Condition.broadcast t.cond)
