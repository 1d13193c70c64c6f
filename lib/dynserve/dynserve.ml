open Relation
module Wire = Servsim.Wire
module Trace = Servsim.Trace

(* The engine side of the daemon's dynamic FD sessions: translates the
   protocol-v5 verbs that [Store.Handler] serves into [Core.Dynamic]
   calls and their results back into wire responses.

   Determinism is the load-bearing property here: [Store.Tenant]
   persists a dynamic session as its update history alone and rebuilds
   it by re-dispatching that history through a fresh handler, so every
   response — errors included — and every trace event must be a pure
   function of the [Begin_dynamic] request and the updates after it.
   [Core.Dynamic] gives us that: all client randomness derives from the
   session seed, and rejected updates raise before touching any ORAM. *)

let encode_row values = Array.to_list (Array.map Codec.encode_value values)

let decode_row cells =
  try Result.Ok (Array.of_list (List.map Codec.decode_value cells))
  with Invalid_argument msg -> Result.Error ("malformed cell: " ^ msg)

let fd_status (fd, valid) =
  {
    Wire.fd_lhs = Int64.of_int (Attrset.to_int fd.Fdbase.Fd.lhs);
    fd_rhs = fd.Fdbase.Fd.rhs;
    fd_valid = valid;
  }

let fd_of_status { Wire.fd_lhs; fd_rhs; fd_valid } =
  ({ Fdbase.Fd.lhs = Attrset.of_int (Int64.to_int fd_lhs); rhs = fd_rhs }, fd_valid)

let fds_reply dyn statuses =
  let trace = Core.Session.trace (Core.Dynamic.session dyn) in
  Wire.Fds_reply
    {
      fds = List.map fd_status statuses;
      dyn_full = Trace.full_digest trace;
      dyn_shape = Trace.shape_digest trace;
      dyn_events = Trace.count trace;
    }

let dispatch dyn req =
  match req with
  | Wire.Insert_row cells -> (
      match decode_row cells with
      | Result.Error msg -> Wire.Error msg
      | Result.Ok values -> (
          match Core.Dynamic.insert dyn values with
          | id -> Wire.Row_id id
          | exception Invalid_argument msg -> Wire.Error msg))
  | Wire.Delete_row id ->
      Core.Dynamic.delete dyn ~id;
      Wire.Ok
  | Wire.Revalidate -> fds_reply dyn (Core.Dynamic.revalidate dyn)
  | _ -> Wire.Error "not a dynamic update verb"

let begin_dynamic req =
  match req with
  | Wire.Begin_dynamic { seed; capacity; max_lhs; cols; rows } -> (
      if rows = [] then Result.Error "Begin_dynamic: empty table"
      else if cols > Attrset.max_attrs then
        Result.Error
          (Printf.sprintf "Begin_dynamic: arity %d exceeds the %d-column relation model" cols
             Attrset.max_attrs)
      else
        let decoded =
          List.fold_left
            (fun acc row ->
              match (acc, decode_row row) with
              | Result.Error _, _ -> acc
              | _, (Result.Error _ as e) -> e
              | Result.Ok rs, Result.Ok r -> Result.Ok (r :: rs))
            (Result.Ok []) rows
        in
        match decoded with
        | Result.Error msg -> Result.Error msg
        | Result.Ok rev_rows -> (
            let table =
              try
                let schema = Schema.make (Array.init cols (Printf.sprintf "c%d")) in
                Result.Ok (Table.make schema (Array.of_list (List.rev rev_rows)))
              with Invalid_argument msg -> Result.Error msg
            in
            match table with
            | Result.Error msg -> Result.Error msg
            | Result.Ok table -> (
                let capacity = if capacity = 0 then None else Some capacity in
                let max_lhs = if max_lhs = 0 then None else Some max_lhs in
                match
                  Core.Dynamic.start ~seed:(Int64.to_int seed) ?capacity ?max_lhs table
                with
                | dyn ->
                    let initial = List.map (fun fd -> (fd, true)) (Core.Dynamic.fds dyn) in
                    Result.Ok (dyn, fds_reply dyn initial)
                | exception Invalid_argument msg -> Result.Error msg)))
  | _ -> Result.Error "not a Begin_dynamic request"

let install () = ()
