(** The shard router: a thin {!Wire}-protocol front for N shard
    servers, placing requests by consistent hashing on {!Content_hash}
    digests.

    The router holds no verdicts and decides nothing.  It reads each
    request just enough to find its digest, asks the {!Ring} which
    shard owns it, forwards the {e original} request line over a
    per-connection client to that shard, and relays the shard's
    response line verbatim — so a routed [decide]/[delta] response is
    byte-identical to one obtained shard-direct, cache provenance
    included.

    Placement per op:
    - [decide] — compute the instance's {!Content_hash} instance key
      (the digest the shard will answer with) and route by it on the
      ring.  Every repeat of the same problem lands on the same shard,
      so shard caches partition the key space instead of duplicating
      it.  A bounded {b text memo} maps {!Content_hash.text_key} of the
      raw instance text to that key, so only the first sighting of a
      request text parses and hashes it; a repeat costs one MD5 of the
      text.  A text that does not parse is answered with an error here
      and never memoized.
    - [delta] — route by the quoted digest.  A chained digest (the
      [Content_hash.chain_key] of an earlier delta) does not hash to
      its parent's shard, so the router remembers
      [chained digest → shard] in a bounded LRU as responses stream
      back; an entry that ages out simply falls back to the ring and a
      cold decide on the (wrong) shard — correctness never depends on
      the map.
    - [batch] — split by per-instance placement (each item through the
      text memo, as a [decide]), forward sub-batches, reassemble
      results in request order.
    - [stats] — fan out, answer with the field-wise {e sum} over shards
      plus a per-shard breakdown and the router's own counters.
    - [compact] — fan out to every shard.
    - [ping] — answered locally.  [sleep] — forwarded to the first
      shard.  [export]/[import] are shard-direct ops and answer with an
      error here, under the op the request named.
    - [shutdown] — forwarded to every shard (each drains), then the
      router answers and stops.

    {b Warm transfer.}  {!rebalance} moves hot entries onto the shard
    the ring says owns them: it [export]s each shard's hottest entries
    and [import]s every entry whose owner differs from where it was
    found — the join path for a shard that starts empty (or restarts
    with a stale store).  Entries are certificate-checked by the
    receiving shard, so a bad transfer is refused, not stored.

    Shard connections are opened lazily per incoming connection (with
    {!Client.connect} retry, so racing a still-binding shard works) and
    a dead shard surfaces as a per-request response with status
    ["unavailable"] and an error beginning ["shard_unavailable:"] — a
    {e typed} failure, distinguishable from a malformed request; the
    next request reconnects.

    {b Health.}  After [unhealthy_after] consecutive forward failures a
    shard is marked down for [health_cooldown_s] seconds, during which
    requests routed to it fail fast with the same typed
    [shard_unavailable] instead of re-running the connect-retry cycle.
    When the cooldown lapses the next routed request probes the shard
    (half-open); success clears the mark.  Per-shard health appears in
    the aggregated [stats] response (["health"] object) and the down
    count in the router's own counters.

    {b Reply integrity.}  Shards seal every response line with a
    trailing CRC ({!Wire.seal}); the router refuses to relay a reply
    whose seal is missing or wrong ({!Wire.crc_status}, computed once
    per reply by the shard connection's {!Client}), so bytes
    damaged between shard and router (a chaos proxy, a bad NIC) become
    a typed [shard_unavailable] rather than a corrupted verdict.

    A [shard_timeout_s] deadline (kernel socket timeouts on the shard
    connections) bounds how long a hung shard can stall a routed
    request; expiry surfaces as the same typed unavailability.

    {b Front end.}  Listening, the connection loop and request decoding
    are the {!Endpoint}'s, shared with the shard server; the router
    passes it the per-connection shard clients, its dispatch and its
    trace policy.  Each request runs under a root ["service.route"]
    span tagged with the client's [trace_id] when it sent one.  Unlike
    a shard, the router never mints an id: it relays the client's line
    verbatim, so an id minted here could never reach the shard. *)

type config = {
  vnodes : int;  (** ring points per shard (default 64) *)
  chain_capacity : int;
      (** size of the chained-digest map, and of the request-text memo
          (default 4096) *)
  connect_retries : int;  (** per shard-connect (default 20) *)
  retry_backoff_s : float;  (** initial backoff (default 0.05 s) *)
  shard_timeout_s : float option;
      (** per-request deadline on shard connections ([None] = wait
          forever, the default) *)
  unhealthy_after : int;
      (** consecutive forward failures before a shard is marked down
          (default 3) *)
  health_cooldown_s : float;
      (** how long a down mark lasts before the next request probes the
          shard again (default 1.0 s) *)
}

val default_config : config

type t

val create :
  ?config:config -> shards:(string * Wire.address) list -> Wire.address -> t
(** Build the ring, then bind the router's own listen address, so a
    failed [create] leaves no socket file behind.  [shards] are
    [(name, address)] pairs; names feed the ring, so keep them stable
    across restarts.
    @raise Invalid_argument on an empty or duplicate-bearing shard
    list; [Unix.Unix_error] when binding fails. *)

val address : t -> Wire.address
val shard_names : t -> string list

val rebalance : t -> ?limit:int -> unit -> (int, string) result
(** One warm-transfer sweep: export up to [limit] (default 64) hot
    entries from every shard, re-import the misplaced ones onto their
    owners.  Returns how many entries moved.  [Error] when a shard is
    unreachable. *)

val run : t -> unit
(** Serve until a [shutdown] request arrives (which is forwarded to
    every shard first); returns after the acceptor stops. *)

val shutdown : t -> unit
(** Stop the acceptor without touching the shards. *)

val stats : t -> (string * int) list
(** The router's own counters: [forwarded], [forward_errors],
    [requests], [errors] (request lines the front end refused —
    failed integrity check, unparsable JSON, unknown op or bad fields —
    and ["internal: ..."] failures, counted as a shard counts them),
    [chain_entries], [chain_hits], [chain_misses],
    [chain_evictions], [text_entries], [text_hits], [text_misses],
    [rebalanced], [shards], [shards_unhealthy],
    [unavailable_fast_fails], [uptime_seconds], [started_at]. *)
