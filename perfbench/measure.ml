(* Sample statistics, in-memory spans, /proc readings and the result
   line.  Everything here is benchmark-side: the program under test is
   only ever observed through its public functions, its wire ops and
   the kernel's view of its processes. *)

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Samples: every per-request sample is kept, so percentiles are exact
   order statistics rather than histogram bucket bounds. *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let count t = t.n

  let append_all dst src =
    for i = 0 to src.n - 1 do
      add dst src.a.(i)
    done

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort Float.compare s;
    s
end

(* Nearest-rank percentile of a sorted array ([nan] when empty). *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let r = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (r - 1)))

(* The median, averaging the two middle values of an even-sized set. *)
let median_of sorted =
  let n = Array.length sorted in
  if n = 0 then nan
  else if n land 1 = 1 then sorted.(n / 2)
  else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  median_of a

(* The p99 of a run: the median of the p99s of its blocks of [block_s]
   seconds, cut by completion time ([ends.(i)] is when sample [i]
   finished; late finishers join the last block).  A burst of
   interference from outside the benchmark then moves one block, not
   the result.  Blocks are sized to hold over a thousand samples, so
   each block p99 has at least ten samples beyond it. *)
let block_p99 ~block_s ~t0 ~seconds (latencies : Samples.t) (ends : Samples.t) =
  let n = max 1 (int_of_float (seconds /. block_s)) in
  let len = seconds /. float_of_int n in
  let blocks = Array.init n (fun _ -> Samples.create ()) in
  for i = 0 to Samples.count latencies - 1 do
    let b = int_of_float ((ends.a.(i) -. t0) /. len) in
    Samples.add blocks.(max 0 (min (n - 1) b)) latencies.a.(i)
  done;
  median (Array.to_list (Array.map (fun b -> percentile (Samples.sorted b) 99.) blocks))

(* The highest percentile with at least ten samples beyond it. *)
let max_supported_percentile n =
  if n < 10 then 0. else 100. *. (1. -. (10. /. float_of_int n))

(* ------------------------------------------------------------------ *)
(* Spans, kept in memory in columnar arrays and written out once at the
   end of a traced run.  A span's self time is its duration minus the
   durations of its children (children of one span never overlap: each
   span is opened and closed by one thread). *)

module Trace = struct
  let on = ref false
  let mu = Mutex.create ()
  let names : (string, int) Hashtbl.t = Hashtbl.create 64
  let name_of_id : string list ref = ref []  (* reversed *)
  let n = ref 0
  let name_ids = ref (Array.make 4096 0)
  let parents = ref (Array.make 4096 (-1))
  let t0s = ref (Array.make 4096 0.)
  let t1s = ref (Array.make 4096 0.)

  let grow () =
    let cap = Array.length !name_ids in
    let extend a fill =
      let b = Array.make (2 * cap) fill in
      Array.blit a 0 b 0 cap;
      b
    in
    name_ids := extend !name_ids 0;
    parents := extend !parents (-1);
    t0s := extend !t0s 0.;
    t1s := extend !t1s 0.

  let name_id name =
    match Hashtbl.find_opt names name with
    | Some i -> i
    | None ->
        let i = Hashtbl.length names in
        Hashtbl.replace names name i;
        name_of_id := name :: !name_of_id;
        i

  let open_ name parent =
    Mutex.lock mu;
    if !n = Array.length !name_ids then grow ();
    let id = !n in
    incr n;
    !name_ids.(id) <- name_id name;
    !parents.(id) <- parent;
    !t0s.(id) <- now ();
    Mutex.unlock mu;
    id

  let close id =
    let t = now () in
    Mutex.lock mu;
    !t1s.(id) <- t;
    Mutex.unlock mu

  (* [with_ ?parent name f] runs [f id] under a span when tracing is on
     and [traced] (default: true) holds; otherwise [id] is -1, which
     children treat as "no parent".  [traced] lets a traced run
     interleave untraced blocks to measure the tracing overhead. *)
  let with_ ?(traced = true) ?(parent = -1) name f =
    if not (!on && traced) then f (-1)
    else begin
      let id = open_ name parent in
      match f id with
      | r ->
          close id;
          r
      | exception e ->
          close id;
          raise e
    end

  let duration id = !t1s.(id) -. !t0s.(id)

  (* Self time of every span named [name], in seconds. *)
  let self_times name =
    match Hashtbl.find_opt names name with
    | None -> [||]
    | Some nid ->
        let child = Array.make !n 0. in
        for i = 0 to !n - 1 do
          let p = !parents.(i) in
          if p >= 0 then child.(p) <- child.(p) +. duration i
        done;
        let out = Samples.create () in
        for i = 0 to !n - 1 do
          if !name_ids.(i) = nid then Samples.add out (duration i -. child.(i))
        done;
        Samples.sorted out

  (* Chrome trace-event JSON (one complete event per span). *)
  let write path =
    let names = Array.of_list (List.rev !name_of_id) in
    let oc = open_out path in
    output_string oc "[";
    let base = if !n > 0 then !t0s.(0) else 0. in
    for i = 0 to !n - 1 do
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
        names.(!name_ids.(i))
        ((!t0s.(i) -. base) *. 1e6)
        (duration i *. 1e6) i !parents.(i)
    done;
    output_string oc "]\n";
    close_out oc

  let count () = !n
end

(* ------------------------------------------------------------------ *)
(* /proc readings. *)

(* VmHWM (peak resident set) of a process, in MB; [pid] may be "self". *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d kB"
              (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
      in
      scan ())

(* ------------------------------------------------------------------ *)
(* Output. *)

type metric = { name : string; unit : string; value : float }

let metric name unit value = { name; unit; value }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* The last line of standard output: the result object a benchmark
   harness reads.  Non-finite values cannot be represented in JSON and mark the
   run incorrect. *)
let result_line ~correct ~attempted ~failed metrics =
  let finite = List.for_all (fun m -> Float.is_finite m.value) metrics in
  let body =
    String.concat ","
      (List.map
         (fun m ->
           Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" m.name
             (json_number (if Float.is_finite m.value then m.value else 0.))
             m.unit)
         metrics)
  in
  Printf.sprintf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}"
    (correct && finite) attempted failed body
