(* The system under test as it is deployed: two [defcheck serve --shard
   i/2] processes with durable stores behind one [defcheck route]
   process, all talking over Unix-domain sockets inside the run's state
   directory.  The benchmark only spawns them, talks the wire protocol
   to them and reads their /proc entries. *)

module Wire = Service.Wire
module Client = Service.Client
module Json = Service.Json

let shard_names = [| "shard0"; "shard1" |]

type t = {
  router : Wire.address;
  shards : Wire.address array;
  pids : (string * int) list;  (* router first *)
}

(* Every child still running, for the exit-time sweep. *)
let live : int list ref = ref []

let reap pid =
  live := List.filter (fun p -> p <> pid) !live;
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let () = at_exit kill_all

let spawn ~cli ~dir name args =
  let log =
    Unix.openfile
      (Filename.concat dir (name ^ ".log"))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ]
      0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close log;
        Unix.close null)
      (fun () -> Unix.create_process cli (Array.of_list (cli :: args)) null log log)
  in
  live := pid :: !live;
  pid

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let ping_line = Wire.request_to_string Wire.Ping

(* Poll until the process answers [ping] (2 ms between attempts, so the
   readiness wait adds at most that much to set-up time). *)
let wait_ready ~pid ~deadline addr =
  let rec loop () =
    if exited pid then failwith (Printf.sprintf "process %d exited during start-up" pid);
    match Client.connect addr with
    | c -> (
        let r = Client.request_raw c ping_line in
        Client.close c;
        match r with Ok _ -> () | Error _ -> retry ())
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) -> retry ()
  and retry () =
    if Unix.gettimeofday () > deadline then
      failwith (Printf.sprintf "%s not ready in time" (Wire.address_to_string addr));
    Unix.sleepf 0.002;
    loop ()
  in
  loop ()

let start ~cli ~dir =
  let sock name = Wire.Unix_sock (Filename.concat dir (name ^ ".sock")) in
  let shards = Array.map sock shard_names in
  let shard_pids =
    Array.mapi
      (fun i name ->
        let store = Filename.concat dir (name ^ ".store") in
        ( name,
          spawn ~cli ~dir name
            [
              "serve"; "-a"; Wire.address_to_string shards.(i); "--shard";
              Printf.sprintf "%d/2" i; "--domains"; "2"; "--store"; store;
              "--fsync"; "every:64";
            ] ))
      shard_names
  in
  let router = sock "router" in
  let router_pid =
    spawn ~cli ~dir "router"
      ([ "route"; "-a"; Wire.address_to_string router ]
      @ Array.to_list (Array.map Wire.address_to_string shards))
  in
  let deadline = Unix.gettimeofday () +. 60. in
  Array.iteri
    (fun i (_, pid) -> wait_ready ~pid ~deadline shards.(i))
    shard_pids;
  wait_ready ~pid:router_pid ~deadline router;
  { router; shards; pids = ("router", router_pid) :: Array.to_list shard_pids }

(* Shut the cluster down through the router (each shard drains), then
   wait for every process; anything still running after 15 s is
   killed. *)
let stop t =
  (try
     let c = Client.connect ~deadline_s:15. t.router in
     ignore (Client.request_raw c (Wire.request_to_string Wire.Shutdown));
     Client.close c
   with _ -> ());
  let deadline = Unix.gettimeofday () +. 15. in
  List.iter
    (fun (_, pid) ->
      while (not (exited pid)) && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.005
      done;
      if not (exited pid) then (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    t.pids

let peak_rss_mb t =
  List.fold_left
    (fun acc (_, pid) -> Float.max acc (Measure.vm_hwm_mb (string_of_int pid)))
    0. t.pids

(* ------------------------------------------------------------------ *)
(* Observation ops. *)

let ask addr req =
  let c = Client.connect addr in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      match Client.request_raw c (Wire.request_to_string req) with
      | Error msg -> failwith msg
      | Ok line -> (
          match Json.parse line with Ok j -> j | Error msg -> failwith msg))

let int_fields j =
  match j with
  | Some (Json.Obj kvs) ->
      List.filter_map (fun (k, v) -> Option.map (fun n -> (k, n)) (Json.to_int v)) kvs
  | _ -> []

type stats = { shard_sum : (string * int) list; router_own : (string * int) list }

(* The router's [stats]: field-wise sums over the shards plus its own
   counters. *)
let stats t =
  let j = ask t.router Wire.Stats in
  { shard_sum = int_fields (Json.member "stats" j); router_own = int_fields (Json.member "router" j) }

let field kvs k = Option.value (List.assoc_opt k kvs) ~default:0

let stats_delta ~before ~after k ~router =
  if router then field after.router_own k - field before.router_own k
  else field after.shard_sum k - field before.shard_sum k

(* The router's [metrics]: the shards' histograms merged. *)
let metrics t =
  let j = ask t.router Wire.Metrics in
  match Option.map Service.Metrics.of_json (Json.member "data" j) with
  | Some (Ok snap) -> snap
  | _ -> failwith "malformed metrics reply"

let hist_delta ~(before : Service.Metrics.snapshot) ~(after : Service.Metrics.snapshot) name =
  let get (s : Service.Metrics.snapshot) =
    Option.value (List.assoc_opt name s.histograms)
      ~default:(Obs.Histogram.zero_snapshot ())
  in
  let a = get before and b = get after in
  {
    Obs.Histogram.counts =
      Array.mapi
        (fun i c -> c - if i < Array.length a.counts then a.counts.(i) else 0)
        b.counts;
    sum_ns = b.sum_ns - a.sum_ns;
  }

(* A percentile of a histogram delta, in µs ([nan] when empty).  These
   are bucket bounds (about 19% apart) and serve only the per-layer
   view; end-to-end percentiles come from the benchmark's own samples. *)
let hist_percentile_us h p =
  if Obs.Histogram.total h = 0 then nan
  else float_of_int (Obs.Histogram.percentile_of h p) /. 1e3
