type params = { k : int }

let default_params = { k = 1 }

type decide = ?budget:Budget.t -> ?params:params -> Instance.t -> Outcome.t
type decider = { lang : string; doc : string; decide : decide }

let table : (string, decider) Hashtbl.t = Hashtbl.create 8

let register d = Hashtbl.replace table d.lang d
let find lang = Hashtbl.find_opt table lang

let names () =
  Hashtbl.fold (fun name _ acc -> name :: acc) table []
  |> List.sort String.compare

(* Telemetry is plumbed in exactly once, here: every registered language
   gets a root span around its decide call, and the budget's step/poll
   tallies are published after it returns — so the per-phase breakdowns
   and counter catalogue need no per-decider boilerplate. *)
let unknown_lang lang =
  Printf.sprintf "unknown language %S; registered: %s" lang
    (String.concat ", " (names ()))

let decide ?budget ?params ~lang inst =
  match find lang with
  | Some d ->
      Ok
        (Obs.Span.with_ ("decide." ^ lang) (fun () ->
             let o = d.decide ?budget ?params inst in
             Option.iter Budget.flush_telemetry budget;
             o))
  | None -> Error (unknown_lang lang)

(* Batched dispatch: one decider, many instances, fanned out across the
   domain pool.  Each instance is decided exactly as [decide] would —
   its own root span, a fresh budget from [make_budget] (budgets are
   single-use, so a shared one would starve every instance after the
   first), telemetry flushed per attempt — and the result list lines up
   with the input list.  Instances are independent, so outcomes are the
   same at any pool size.  The one kernel with its own parallel path,
   [Hom]'s root split (ucrdpq), declines to sub-split when called from a
   worker ([Par.Pool.in_pool]) and searches sequentially inline —
   batch-level parallelism wins over search-level, so instances fill
   the domains and subtrees stay put. *)
let decide_batch ?make_budget ?params ~lang insts =
  match find lang with
  | None ->
      let e = unknown_lang lang in
      List.map (fun _ -> Error e) insts
  | Some d ->
      let one inst =
        let budget = Option.map (fun mk -> mk ()) make_budget in
        Ok
          (Obs.Span.with_ ("decide." ^ lang) (fun () ->
               let o = d.decide ?budget ?params inst in
               Option.iter Budget.flush_telemetry budget;
               o))
      in
      Par.Pool.map_list one insts
