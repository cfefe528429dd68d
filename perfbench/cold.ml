(* The [cold-solve] workload: a seeded set of distinct instances over all
   five languages, each decided from its text by the main thread through
   [Engine.Registry.decide] with the domain pool at its full size and no
   fuel limit — what [defcheck check --domains N] does per file.  No
   service layer is involved. *)

module Gen = Datagraph.Graph_gen
module Graph_io = Datagraph.Graph_io
module TR = Datagraph.Tuple_relation
module Instance = Engine.Instance
module Outcome = Engine.Outcome
module Registry = Engine.Registry
module Samples = Measure.Samples
module Trace = Measure.Trace

let now = Measure.now

type candidate = {
  name : string;
  lang : string;
  k : int;
  text : string;
  oracle : bool option;  (* definability known independently of the deciders *)
}

(* A family draws candidates for one language and keeps those whose
   search, under a fuel bound of [hi] steps, finishes in at least [lo]
   steps.  Selection by step count — deterministic, unlike wall time —
   keeps every instance heavy enough to reach the kernels and bounds
   the heavy tail, so the set's cost barely moves from seed to seed. *)
type family = {
  fam : string;
  count : int;
  lo : int;
  hi : int;
  draw : int -> candidate;  (* candidate [i] of this seed *)
}

let random_candidate ~seed ~fam ~lang ~k ~n ~delta ~labels ~density i =
  let s = Fault.Rng.mix (seed lxor Fault.Rng.of_name fam) i in
  let g = Gen.random ~seed:s ~n ~delta ~labels ~density () in
  let rel = Gen.random_reachable_relation ~seed:s g ~count:(max 1 (n / 2)) in
  {
    name = Printf.sprintf "%s-%d" fam i;
    lang;
    k;
    text = Graph_io.instance_to_string g (TR.of_binary rel);
    oracle = None;
  }

let families seed =
  let random = random_candidate ~seed in
  [
    { fam = "rpq"; count = 96; lo = 0; hi = 20_000;
      draw = random ~fam:"rpq" ~lang:"rpq" ~k:1 ~n:10 ~delta:5 ~labels:[ "a"; "b" ] ~density:0.3 };
    { fam = "krem"; count = 96; lo = 150; hi = 800;
      draw = random ~fam:"krem" ~lang:"krem" ~k:2 ~n:5 ~delta:2 ~labels:[ "a" ] ~density:0.45 };
    { fam = "rem"; count = 96; lo = 150; hi = 800;
      draw = random ~fam:"rem" ~lang:"rem" ~k:1 ~n:6 ~delta:3 ~labels:[ "a"; "b" ] ~density:0.3 };
    { fam = "ree"; count = 96; lo = 20; hi = 120;
      draw = random ~fam:"ree" ~lang:"ree" ~k:1 ~n:4 ~delta:2 ~labels:[ "a" ] ~density:0.45 };
    { fam = "ucrdpq"; count = 96; lo = 0; hi = 20_000;
      draw = random ~fam:"ucrdpq" ~lang:"ucrdpq" ~k:1 ~n:7 ~delta:3 ~labels:[ "a"; "b" ] ~density:0.35 };
    (* Theorem 35: the reduction of F is UCRDPQ-definable iff F is
       unsatisfiable — an oracle independent of the decider. *)
    { fam = "sat"; count = 48; lo = 0; hi = 1_000_000;
      draw =
        (fun i ->
          let s = Fault.Rng.mix (seed lxor Fault.Rng.of_name "sat") i in
          let f = Reductions.Cnf.random ~seed:s ~num_vars:3 ~num_clauses:(2 + (i mod 2)) () in
          let r = Reductions.Sat_reduction.build f in
          {
            name = Printf.sprintf "sat-%d" i;
            lang = "ucrdpq";
            k = 1;
            text = Graph_io.instance_to_string r.graph r.target;
            oracle = Some (not (Reductions.Cnf.satisfiable f));
          }) };
    (* Figure 1 with S2 in every language; S2 is 2-REM-definable
       (Example 14), hence REM-definable. *)
    { fam = "fig1"; count = 5; lo = 0; hi = 1_000_000;
      draw =
        (fun i ->
          let lang, k, oracle =
            List.nth
              [ ("rpq", 1, None); ("krem", 2, Some true); ("rem", 1, Some true);
                ("ree", 1, None); ("ucrdpq", 1, None) ]
              i
          in
          let g = Gen.fig1 () in
          {
            name = "fig1-" ^ lang;
            lang;
            k;
            text = Graph_io.instance_to_string g (TR.of_binary (Gen.fig1_s2 g));
            oracle;
          }) };
  ]

(* Candidates drawn per family before selection: generated in set-up so
   set-up time covers instance generation. *)
let candidates_per_family = 6

let generate seed =
  List.map
    (fun f ->
      let n = if f.fam = "fig1" then f.count else f.count * candidates_per_family in
      (f, Array.init n f.draw))
    (families seed)

type selected = { cand : candidate; expect : string (* the verdict block *) }

let parse text =
  match Graph_io.instance_of_string text with
  | Ok (g, s) -> (g, Instance.create_exn g s)
  | Error msg -> failwith msg

let closure_of (o : Outcome.t) =
  Option.value (List.assoc_opt "closure_size" o.stats.extras) ~default:0

(* Select and compute references: a fuel-bounded decide per candidate,
   certificate re-checked by the evaluator, oracle compared where one
   exists.  Runs before any timing. *)
let select generated =
  List.map
    (fun (f, cands) ->
      let out = ref [] and taken = ref 0 in
      Array.iter
        (fun c ->
          if !taken < f.count then begin
            let g, inst = parse c.text in
            let budget = Engine.Budget.create ~fuel:f.hi () in
            match Registry.decide ~budget ~params:{ Registry.k = c.k } ~lang:c.lang inst with
            | Error msg -> failwith msg
            | Ok o -> (
                match o.verdict with
                | Outcome.Unknown _ -> ()
                | _ when o.stats.steps < f.lo -> ()
                | v ->
                    (match v with
                    | Outcome.Definable cert -> (
                        match Outcome.check_certificate inst cert with
                        | Ok () -> ()
                        | Error msg -> failwith (c.name ^ ": certificate rejected: " ^ msg))
                    | _ -> ());
                    (match c.oracle with
                    | Some d when d <> (Outcome.definable o = Some true) ->
                        failwith (c.name ^ ": verdict contradicts the paper's oracle")
                    | _ -> ());
                    incr taken;
                    out := { cand = c; expect = Service.Wire.verdict_to_string g ~lang:c.lang o } :: !out)
          end)
        cands;
      if !taken < f.count then
        failwith (Printf.sprintf "family %s: only %d of %d candidates selected" f.fam !taken f.count);
      List.rev !out)
    generated

(* Round-robin over the families, so a pass cut short by the deadline
   still holds every language in proportion. *)
let interleave lists =
  let arrs = Array.of_list (List.map Array.of_list lists) in
  let longest = Array.fold_left (fun m a -> max m (Array.length a)) 0 arrs in
  let out = ref [] in
  for i = 0 to longest - 1 do
    Array.iter (fun a -> if i < Array.length a then out := a.(i) :: !out) arrs
  done;
  Array.of_list (List.rev !out)

(* ------------------------------------------------------------------ *)

(* The pool size of the timed decides: 1, i.e. [defcheck check
   --domains 1].  At 2 domains on a 2-core host the intra-kernel
   parallel paths made this workload slower and far noisier from run to
   run (p99 spread beyond any usable bound), so they are measured per
   layer instead: [kernel_speedup] below times each at 1 and 2 domains. *)
let pool_size = 1

(* One set-up: the deciders registered and every candidate generated. *)
let setup seed =
  let t0 = now () in
  Definability.Deciders.init ();
  let generated = generate seed in
  (generated, now () -. t0)

type tally = {
  plain : Samples.t;
  ends : Samples.t;  (* completion time of each [plain] sample *)
  traced : Samples.t;
  mutable attempted : int;
  mutable mismatches : int;
  mutable first_mismatch : string option;
}

(* Decide one instance from its text; the timed bracket is parse +
   validate + decide.  The verdict block is rendered and compared after
   the bracket. *)
let decide_one ~traced tally (s : selected) =
  let c = s.cand in
  let t0 = now () in
  let g, o, inst =
    Trace.with_ ~traced "cold.decide" (fun root ->
        let g, rel =
          Trace.with_ ~traced ~parent:root "datagraph.instance_parse" (fun _ ->
              match Graph_io.instance_of_string c.text with
              | Ok gs -> gs
              | Error msg -> failwith msg)
        in
        let inst =
          Trace.with_ ~traced ~parent:root "engine.validate" (fun _ -> Instance.create_exn g rel)
        in
        let o =
          Trace.with_ ~traced ~parent:root ("definability." ^ c.lang) (fun _ ->
              Registry.decide ~params:{ Registry.k = c.k } ~lang:c.lang inst)
        in
        (g, o, inst))
  in
  let t1 = now () in
  tally.attempted <- tally.attempted + 1;
  if traced then Samples.add tally.traced (t1 -. t0)
  else begin
    Samples.add tally.plain (t1 -. t0);
    Samples.add tally.ends t1
  end;
  match o with
  | Error msg -> failwith msg
  | Ok o ->
      let block = Service.Wire.verdict_to_string g ~lang:c.lang o in
      if block <> s.expect then begin
        tally.mismatches <- tally.mismatches + 1;
        if tally.first_mismatch = None then
          tally.first_mismatch <- Some (Printf.sprintf "%s: got %s, expected %s" c.name block s.expect)
      end;
      (o, inst)

let new_tally () =
  {
    plain = Samples.create ();
    ends = Samples.create ();
    traced = Samples.create ();
    attempted = 0;
    mismatches = 0;
    first_mismatch = None;
  }

(* Untraced: decide the set in passes until [seconds] have elapsed.
   Returns the tally, the start time and the wall time. *)
let run ~seconds set =
  Par.Pool.set_size pool_size;
  let tally = new_tally () in
  let t0 = now () in
  let deadline = t0 +. seconds in
  let i = ref 0 in
  while now () < deadline do
    ignore (decide_one ~traced:false tally set.(!i mod Array.length set));
    incr i
  done;
  (tally, t0, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Traced: whole passes alternating untraced and traced (at least one of
   each), plus the per-pass counts and the pool-size kernel ratios. *)

let kernel_instances () =
  let krem_instance ~seed ~n ~delta =
    let g = Gen.random ~seed ~n ~delta ~labels:[ "a" ] ~density:0.45 () in
    (g, Gen.random_reachable_relation ~seed g ~count:2)
  in
  let gw, sw = krem_instance ~seed:8 ~n:6 ~delta:2 in
  let gr, sr = krem_instance ~seed:15 ~n:5 ~delta:2 in
  let gh = Gen.random ~seed:23 ~n:7 ~delta:3 ~labels:[ "a"; "b" ] ~density:0.35 () in
  let sh = TR.of_binary (Gen.random_reachable_relation ~seed:23 gh ~count:3) in
  [
    ("witness", fun () -> ignore (Definability.Rem_definability.search ~max_tuples:200_000 gw sw));
    ("ree_closure", fun () -> ignore (Definability.Ree_definability.search ~max_size:2_000 gr sr));
    ("hom", fun () -> ignore (Definability.Hom.search_violating gh sh));
  ]

(* Median per-call time at pool sizes 1 and 2 over [rounds] alternating
   rounds of equal work; the ratio d1/d2 (> 1 means two domains help).
   Kernels are called directly, with unlimited fuel, outside any pool
   task — the conditions under which their parallel paths engage. *)
let kernel_speedup f =
  let rounds = 5 in
  Par.Pool.set_size 1;
  f ();
  let t0 = now () in
  f ();
  let one = Float.max 1e-6 (now () -. t0) in
  let reps = max 1 (min 1000 (int_of_float (0.05 /. one))) in
  let time size =
    Par.Pool.set_size size;
    let t0 = now () in
    for _ = 1 to reps do
      f ()
    done;
    (now () -. t0) /. float_of_int reps
  in
  let d1 = ref [] and d2 = ref [] in
  for r = 1 to rounds do
    if r land 1 = 0 then (d1 := time 1 :: !d1; d2 := time 2 :: !d2)
    else (d2 := time 2 :: !d2; d1 := time 1 :: !d1)
  done;
  Par.Pool.set_size pool_size;
  Measure.median !d1 /. Measure.median !d2

type traced = {
  tally : tally;
  steps : int;  (* per pass: all deciders *)
  unknown : int;
  witness_tuples : int;  (* per pass: rpq, rem, krem searches *)
  ree_closure : int;
  busy : (string * float) list;  (* seconds per pass, by language *)
  cert_check_us : float;
  validate_us : float;
  speedups : (string * float) list;
}

let traced ~seconds set =
  Par.Pool.set_size pool_size;
  let tally = new_tally () in
  let steps = ref 0 and unknown = ref 0 and tuples = ref 0 and closure = ref 0 in
  let t0 = now () in
  let pass = ref 0 in
  while !pass < 2 || now () -. t0 < seconds do
    let traced = !pass land 1 = 1 in
    Array.iter
      (fun s ->
        let o, inst = decide_one ~traced tally s in
        if !pass = 0 then begin
          steps := !steps + o.Outcome.stats.steps;
          (match o.verdict with Outcome.Unknown _ -> incr unknown | _ -> ());
          (match s.cand.lang with
          | "rpq" | "rem" | "krem" -> tuples := !tuples + o.stats.steps
          | _ -> ());
          closure := !closure + closure_of o
        end;
        if traced then
          match Outcome.certificate o with
          | Some cert ->
              Trace.with_ "engine.cert_check" (fun _ ->
                  ignore (Outcome.check_certificate inst cert))
          | None -> ())
      set;
    incr pass
  done;
  let traced_passes = float_of_int (!pass / 2) in
  let busy =
    List.map
      (fun lang ->
        let spans = Trace.self_times ("definability." ^ lang) in
        (lang, Array.fold_left ( +. ) 0. spans /. traced_passes))
      [ "rpq"; "krem"; "rem"; "ree"; "ucrdpq" ]
  in
  let median_us name = Measure.median_of (Trace.self_times name) *. 1e6 in
  {
    tally;
    steps = !steps;
    unknown = !unknown;
    witness_tuples = !tuples;
    ree_closure = !closure;
    busy;
    cert_check_us = median_us "engine.cert_check";
    validate_us = median_us "engine.validate";
    speedups = List.map (fun (name, f) -> (name, kernel_speedup f)) (kernel_instances ());
  }
