(* The project's rule set (the registry's range is exported as [span]).
   R1..R10 are purely syntactic (Parsetree only, no typing), so rules
   about *values* — e.g. "is this comparison on key material?" — are
   name heuristics; R11 is the interprocedural secret-flow analysis
   (Taint / Callgraph).  DESIGN.md §11 documents each rule's rationale
   and the limits of its detector, §16 the R11 lattice. *)

let rec lid_str = function
  | Longident.Lident s -> s
  | Longident.Ldot (l, s) -> lid_str l ^ "." ^ s
  | Longident.Lapply (a, b) -> lid_str a ^ "(" ^ lid_str b ^ ")"

let last_comp = function
  | Longident.Lident s -> s
  | Longident.Ldot (_, s) -> s
  | Longident.Lapply (_, b) -> ( match b with Longident.Lident s -> s | _ -> "")

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.equal prefix (String.sub s 0 (String.length prefix))

(* Normalise an ident path: explicit [Stdlib.] qualification must not
   dodge a rule. *)
let norm s = if starts_with ~prefix:"Stdlib." s then String.sub s 7 (String.length s - 7) else s

(* Walk every expression (and module expression) of a file. *)
let walk (ctx : Rule.ctx) ?(module_expr = fun _ -> ()) f =
  let default = Ast_iterator.default_iterator in
  let it =
    {
      default with
      expr =
        (fun self e ->
          f e;
          default.expr self e);
      module_expr =
        (fun self m ->
          module_expr m;
          default.module_expr self m);
    }
  in
  match ctx.ast with Rule.Impl str -> it.structure it str | Rule.Intf sg -> it.signature it sg

let expr_mentions pred e =
  let found = ref false in
  let default = Ast_iterator.default_iterator in
  let it =
    {
      default with
      expr =
        (fun self e ->
          (match e.Parsetree.pexp_desc with
          | Pexp_ident { txt; _ } -> if pred (norm (lid_str txt)) then found := true
          | _ -> ());
          default.expr self e);
    }
  in
  it.expr it e;
  !found

let contains_sub ~sub s =
  let ls = String.length s and lb = String.length sub in
  let rec go i = i + lb <= ls && (String.equal sub (String.sub s i lb) || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* R1 — no-ambient-randomness                                          *)

let seedish = [ "create"; "init"; "make"; "seed"; "self_init"; "reseed" ]
let time_fn s = String.equal s "Unix.time" || String.equal s "Unix.gettimeofday"

let r1_check ctx =
  walk ctx
    ~module_expr:(fun m ->
      match m.Parsetree.pmod_desc with
      | Pmod_ident { txt; loc } when String.equal (norm (lid_str txt)) "Random" ->
          ctx.Rule.report loc "reference to ambient Stdlib.Random; use the seeded Crypto.Rng"
      | _ -> ())
    (fun e ->
      match e.Parsetree.pexp_desc with
      | Pexp_ident { txt; _ } when starts_with ~prefix:"Random." (norm (lid_str txt)) ->
          ctx.Rule.report e.pexp_loc
            (Printf.sprintf "ambient randomness via %s; use the seeded Crypto.Rng" (lid_str txt))
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
        when List.mem (last_comp txt) seedish
             && List.exists (fun (_, a) -> expr_mentions time_fn a) args ->
          ctx.Rule.report e.pexp_loc ~tag:"time-seed"
            (Printf.sprintf "%s seeded from wall-clock time; thread an explicit seed instead"
               (lid_str txt))
      | _ -> ())

(* ------------------------------------------------------------------ *)
(* R2 — no-unsafe-casts                                                *)

let r2_check ctx =
  walk ctx (fun e ->
      match e.Parsetree.pexp_desc with
      | Pexp_ident { txt; _ } -> (
          let s = norm (lid_str txt) in
          if String.equal s "Obj.magic" then
            ctx.Rule.report e.pexp_loc ~tag:"obj-magic" "Obj.magic defeats the type system"
          else if starts_with ~prefix:"Marshal." s then
            ctx.Rule.report e.pexp_loc ~tag:"marshal"
              (lid_str txt ^ ": Marshal is unsafe on untrusted input; use the wire codec")
          else
            match starts_with ~prefix:"Bytes.unsafe_" s || starts_with ~prefix:"String.unsafe_" s with
            | true ->
                ctx.Rule.report e.pexp_loc ~tag:"bytes-unsafe"
                  (lid_str txt ^ ": unchecked access outside the allowlist")
            | false -> ())
      | _ -> ())

(* ------------------------------------------------------------------ *)
(* R3 — mli-completeness (tree rule)                                   *)

let r3_check ~files ~sources:_ ~(report : Rule.tree_report) =
  let have = Hashtbl.create 64 in
  List.iter (fun p -> Hashtbl.replace have p ()) files;
  List.iter
    (fun p ->
      if
        starts_with ~prefix:"lib/" p
        && Filename.check_suffix p ".ml"
        && not (Filename.check_suffix p "_intf.ml")
        && not (Hashtbl.mem have (p ^ "i"))
      then report ~path:p (Printf.sprintf "missing interface %si" p))
    files

(* ------------------------------------------------------------------ *)
(* R4 — no-raw-output-in-lib                                           *)

let raw_output =
  [
    "Printf.printf";
    "Printf.eprintf";
    "Format.printf";
    "Format.eprintf";
    "print_string";
    "print_bytes";
    "print_endline";
    "print_newline";
    "print_char";
    "print_int";
    "print_float";
    "prerr_string";
    "prerr_bytes";
    "prerr_endline";
    "prerr_newline";
    "prerr_char";
    "prerr_int";
    "prerr_float";
  ]

let r4_check ctx =
  walk ctx (fun e ->
      match e.Parsetree.pexp_desc with
      | Pexp_ident { txt; _ } when List.mem (norm (lid_str txt)) raw_output ->
          ctx.Rule.report e.pexp_loc
            (lid_str txt ^ " in lib/: route diagnostics through Core.Log")
      | _ -> ())

(* ------------------------------------------------------------------ *)
(* R5 — eintr-discipline                                               *)

let raw_syscalls =
  [ "Unix.read"; "Unix.write"; "Unix.single_write"; "Unix.accept"; "Unix.select"; "Unix.connect" ]

let r5_check ctx =
  walk ctx (fun e ->
      match e.Parsetree.pexp_desc with
      | Pexp_ident { txt; _ } when List.mem (norm (lid_str txt)) raw_syscalls ->
          ctx.Rule.report e.pexp_loc
            (lid_str txt ^ ": raw syscall in lib/service; use the daemon's *_retry wrappers")
      | _ -> ())

(* ------------------------------------------------------------------ *)
(* R6 — constant-time-crypto                                           *)

let variable_time_eq = [ "String.equal"; "Bytes.equal"; "String.compare"; "Bytes.compare" ]
let poly_ops = [ "="; "<>"; "compare" ]
let secretish = [ "key"; "secret"; "cipher"; "digest"; "mac"; "tag" ]

let rec direct_name e =
  match e.Parsetree.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (last_comp txt)
  | Pexp_field (_, { txt; _ }) -> Some (last_comp txt)
  | Pexp_constraint (e, _) -> direct_name e
  | _ -> None

let secret_named e =
  match direct_name e with
  | None -> false
  | Some n ->
      let n = String.lowercase_ascii n in
      List.exists (fun sub -> contains_sub ~sub n) secretish

let r6_check ctx =
  walk ctx (fun e ->
      match e.Parsetree.pexp_desc with
      | Pexp_ident { txt; _ } when List.mem (norm (lid_str txt)) variable_time_eq ->
          ctx.Rule.report e.pexp_loc
            (lid_str txt ^ " in lib/crypto compares in variable time; use Crypto.Ct.equal")
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, ([ (_, a); (_, b) ] as _args))
        when List.mem (norm (lid_str txt)) poly_ops && (secret_named a || secret_named b) ->
          ctx.Rule.report e.pexp_loc
            (Printf.sprintf
               "polymorphic %s on secret-named operand leaks via timing; use Crypto.Ct.equal"
               (lid_str txt))
      | _ -> ())

(* ------------------------------------------------------------------ *)
(* R7 — exception-hygiene                                              *)

let r7_check ctx =
  walk ctx (fun e ->
      match e.Parsetree.pexp_desc with
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _)
        when String.equal (norm (lid_str txt)) "failwith" ->
          ctx.Rule.report e.pexp_loc ~tag:"bare-failure"
            "bare failwith in a codec path; raise a typed error (e.g. Wire.Protocol_error)"
      | Pexp_apply
          ( { pexp_desc = Pexp_ident { txt = fn; _ }; _ },
            [ (_, { pexp_desc = Pexp_construct ({ txt = exn; _ }, _); _ }) ] )
        when String.equal (norm (lid_str fn)) "raise" && String.equal (norm (lid_str exn)) "Failure"
        ->
          ctx.Rule.report e.pexp_loc ~tag:"bare-failure"
            "raise Failure in a codec path; raise a typed error (e.g. Wire.Protocol_error)"
      | Pexp_assert { pexp_desc = Pexp_construct ({ txt = Lident "false"; _ }, None); _ } ->
          ctx.Rule.report e.pexp_loc ~tag:"bare-failure"
            "assert false in a codec path; raise a typed error or make the state impossible"
      | Pexp_try (_, cases) ->
          List.iter
            (fun (c : Parsetree.case) ->
              match (c.pc_lhs.ppat_desc, c.pc_guard) with
              | Ppat_any, None ->
                  ctx.Rule.report c.pc_lhs.ppat_loc ~tag:"swallow"
                    "catch-all 'with _ ->' silently swallows exceptions; match specific ones"
              | _ -> ())
            cases
      | _ -> ())

(* ------------------------------------------------------------------ *)
(* R8 — domain-hygiene                                                 *)

let r8_check ctx =
  walk ctx (fun e ->
      match e.Parsetree.pexp_desc with
      | Pexp_ident { txt; _ } when String.equal (norm (lid_str txt)) "Domain.spawn" ->
          ctx.Rule.report e.pexp_loc
            "Domain.spawn outside the sanctioned parallel runtimes; oblivious client-side \
             code must stay sequential (see .fdlint for the allowed scopes)"
      | _ -> ())

(* ------------------------------------------------------------------ *)
(* R9 — durability-hygiene                                             *)

let durable_write_fns =
  [
    "open_out";
    "open_out_bin";
    "open_out_gen";
    "Out_channel.open_bin";
    "Out_channel.open_text";
    "Out_channel.open_gen";
    "Out_channel.with_open_bin";
    "Out_channel.with_open_text";
    "Out_channel.with_open_gen";
    "Unix.openfile";
    "Unix.rename";
    "Sys.rename";
  ]

let r9_check ctx =
  walk ctx (fun e ->
      match e.Parsetree.pexp_desc with
      | Pexp_ident { txt; _ } when List.mem (norm (lid_str txt)) durable_write_fns ->
          ctx.Rule.report e.pexp_loc
            (lid_str txt
           ^ ": direct file creation/rename outside Store.Fsio; durable state must go \
              through the fsync'd tmp-rename helpers")
      | _ -> ())

(* ------------------------------------------------------------------ *)
(* R10 — event-loop-hygiene                                            *)

(* Unlike the expression-only rules above, this one also inspects
   structure/signature items: an `external` is a [Pstr_primitive] (or a
   [Psig_value] with a non-empty [pval_prim]), which the expression
   iterator never sees. *)
let r10_check ctx =
  let prim loc (vd : Parsetree.value_description) =
    if List.exists (starts_with ~prefix:"sfdd_ev_") vd.pval_prim then
      ctx.Rule.report loc ~tag:"external"
        (Printf.sprintf
           "external %s rebinds the evloop C stubs; readiness syscalls are Service.Evloop's \
            private surface"
           vd.pval_name.txt)
  in
  let default = Ast_iterator.default_iterator in
  let it =
    {
      default with
      expr =
        (fun self e ->
          (match e.Parsetree.pexp_desc with
          | Pexp_ident { txt; _ } when String.equal (norm (lid_str txt)) "Unix.select" ->
              ctx.Rule.report e.pexp_loc
                "raw Unix.select outside Service.Evloop; use the Evloop readiness API so \
                 readiness handling stays in one place"
          | _ -> ());
          default.expr self e);
      structure_item =
        (fun self si ->
          (match si.Parsetree.pstr_desc with
          | Pstr_primitive vd -> prim si.pstr_loc vd
          | _ -> ());
          default.structure_item self si);
      signature_item =
        (fun self si ->
          (match si.Parsetree.psig_desc with
          | Psig_value vd when vd.pval_prim <> [] -> prim si.psig_loc vd
          | _ -> ());
          default.signature_item self si);
    }
  in
  match ctx.ast with Rule.Impl str -> it.structure it str | Rule.Intf sg -> it.signature it sg

(* ------------------------------------------------------------------ *)
(* R11 — secret-flow (tree rule)                                       *)

let r11_check ~files:_ ~sources ~report = Callgraph.check (Lazy.force sources) ~report

(* ------------------------------------------------------------------ *)

let all : Rule.t list =
  [
    {
      id = "R1";
      name = "no-ambient-randomness";
      doc =
        "Stdlib.Random and wall-clock seeding are forbidden: all randomness flows from the \
         explicitly seeded Crypto.Rng so runs are reproducible and ORAM position maps are not \
         seeded from guessable entropy.";
      scope = [];
      allow = [ ("", "lib/crypto/rng.ml"); ("", "lib/datasets/") ];
      check = Ast r1_check;
      smoke = Smoke_code { path = "lib/core/smoke.ml"; code = "let d6 () = Random.int 6\n" };
    };
    {
      id = "R2";
      name = "no-unsafe-casts";
      doc =
        "Obj.magic, Marshal and Bytes/String.unsafe_* outside the audited allowlist: unsafe \
         casts can bypass both the type system and the oblivious access discipline.";
      scope = [];
      allow = [];
      check = Ast r2_check;
      smoke = Smoke_code { path = "lib/oram/smoke.ml"; code = "let f x = Obj.magic x\n" };
    };
    {
      id = "R3";
      name = "mli-completeness";
      doc =
        "Every lib/**/*.ml must have a sibling .mli (modules named *_intf.ml are exempt): \
         unsealed modules leak representation details that the leakage arguments rely on \
         being private.";
      scope = [];
      allow = [];
      check = Tree r3_check;
      smoke = Smoke_files [ "lib/foo/orphan.ml" ];
    };
    {
      id = "R4";
      name = "no-raw-output-in-lib";
      doc =
        "Printf.printf / print_* / prerr_* inside lib/ must go through Core.Log so output is \
         levelled, capturable and silenced in library use.";
      scope = [ ("", "lib/") ];
      allow = [];
      check = Ast r4_check;
      smoke =
        Smoke_code { path = "lib/fdbase/smoke.ml"; code = "let () = print_endline \"hi\"\n" };
    };
    {
      id = "R5";
      name = "eintr-discipline";
      doc =
        "Raw Unix.read/write/accept/select/connect in lib/service must flow through the \
         daemon's EINTR-retrying wrappers; a stray EINTR must never kill the event loop.";
      scope = [ ("", "lib/service/") ];
      allow = [];
      check = Ast r5_check;
      smoke =
        Smoke_code { path = "lib/service/smoke.ml"; code = "let f fd b = Unix.read fd b 0 1\n" };
    };
    {
      id = "R6";
      name = "constant-time-crypto";
      doc =
        "String/Bytes equality and polymorphic compare on secret-named operands in lib/crypto \
         terminate on the first differing byte, leaking positions through timing; use \
         Crypto.Ct.equal.";
      scope = [ ("", "lib/crypto/") ];
      allow = [];
      check = Ast r6_check;
      smoke = Smoke_code { path = "lib/crypto/smoke.ml"; code = "let ok key k2 = key = k2\n" };
    };
    {
      id = "R7";
      name = "exception-hygiene";
      doc =
        "Codec paths must fail with typed errors (bare failwith/Failure/assert false there is \
         a protocol bug waiting to crash a server), and catch-all 'try ... with _ ->' that \
         swallows exceptions is forbidden everywhere.";
      scope =
        [
          ("bare-failure", "lib/servsim/wire.ml");
          ("bare-failure", "lib/service/frame_decoder.ml");
          ("bare-failure", "lib/service/conn.ml");
          ("bare-failure", "lib/relation/codec.ml");
        ];
      allow = [];
      check = Ast r7_check;
      smoke =
        Smoke_code { path = "lib/servsim/wire.ml"; code = "let f () = failwith \"boom\"\n" };
    };
    {
      id = "R8";
      name = "domain-hygiene";
      doc =
        "Domain.spawn anywhere except the sanctioned sites (Service.Daemon.with_local's \
         serving domain and the oblivious-sort worker pool, allowed via the checked-in \
         .fdlint): accidental parallelism in client-side oblivious code can reorder the \
         access trace and silently break digest reproducibility.";
      scope = [];
      allow = [];
      check = Ast r8_check;
      smoke =
        Smoke_code { path = "lib/core/smoke.ml"; code = "let start f = Domain.spawn f\n" };
    };
    {
      id = "R9";
      name = "durability-hygiene";
      doc =
        "Opening files for writing or renaming them anywhere in lib/ outside Store.Fsio \
         bypasses the fsync-then-rename discipline the crash-recovery story rests on: a \
         bare open_out/Unix.rename can leave torn or unsynced state that recovery then \
         trusts.  lib/store/fsio.ml is the one audited site.";
      scope = [ ("", "lib/") ];
      allow = [ ("", "lib/store/fsio.ml") ];
      check = Ast r9_check;
      smoke = Smoke_code { path = "lib/store/tenant.ml"; code = "let f p = open_out_bin p\n" };
    };
    {
      id = "R10";
      name = "event-loop-hygiene";
      doc =
        "Raw Unix.select and the sfdd_ev_poll external are the readiness layer's private \
         surface: every other module goes through Service.Evloop, so readiness semantics — \
         level-triggering, the scan over registered descriptors, EINTR handling — are \
         decided in exactly one audited place.  lib/service/evloop.ml is the sole allowed \
         site (via the checked-in .fdlint).";
      scope = [];
      allow = [];
      check = Ast r10_check;
      smoke =
        Smoke_code
          { path = "lib/core/smoke.ml"; code = "let wait fds = Unix.select fds [] [] 0.1\n" };
    };
    {
      id = "R11";
      name = "secret-flow";
      doc =
        "Interprocedural taint analysis of the obliviousness contract: values marked \
         [@secret] (decrypted cells, AES key schedules, stash plaintext) must not reach a \
         branch, a memory index, an allocation size, a loop bound, or wire/disk/log output \
         unless laundered through Crypto.Ct or explicitly audited with [@lint.declassify \
         \"why\"].  The leakage profile L(DB) = {Size(DB), FD(DB)} already discloses sizes, \
         so lengths are public; everything else a secret influences would widen the \
         profile.";
      scope =
        [
          ("", "lib/crypto/");
          ("", "lib/oram/");
          ("", "lib/osort/");
          ("", "lib/core/");
          ("", "lib/servsim/");
          ("", "lib/store/handler.ml");
        ];
      allow = [];
      check = Tree r11_check;
      smoke =
        Smoke_tree
          [
            ("lib/oram/dec.mli", "val open_cell : string -> string [@@secret]\n");
            ("lib/oram/dec.ml", "let open_cell c = c\n");
            ("lib/oram/use.ml", "let f c = if Dec.open_cell c = \"x\" then 1 else 0\n");
          ];
    };
  ]

let span =
  match all with
  | [] -> ""
  | first :: _ ->
      let last = List.fold_left (fun _ r -> r) first all in
      first.Rule.id ^ ".." ^ last.Rule.id

let find spec = List.find_opt (Rule.spec_matches spec) all
