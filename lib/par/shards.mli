(** An affinity-sharded set of resident worker domains.

    The long-running counterpart of {!Pool}: where the pool fans a finite
    batch out and joins, a shard set stays up for the life of a service.
    Every job carries a key; jobs with one key always execute on the same
    worker domain ({e affinity}), in submission order, so per-key mutable
    state — a certification session, its conflict memo, a metrics
    registry — is only ever touched from a single domain and needs no
    locking of its own.  Jobs with different keys sharing a shard
    serialize behind each other; keys on different shards run in
    parallel.

    The job type is the caller's; shard-private state is typically an
    array the [run] closure indexes by its shard-index argument. *)

type 'job t

val create : shards:int -> run:(int -> 'job -> unit) -> 'job t
(** Spawn [shards] worker domains, each looping over its queue and
    applying [run shard_index job].  Exceptions escaping [run] are
    swallowed (a poison job must not kill its shard); [run] is
    responsible for its own error reporting.  Raises [Invalid_argument]
    when [shards <= 0]. *)

val shard_index : 'job t -> string -> int
(** The shard a key is pinned to: a stable hash of the key modulo the
    shard count. *)

val submit_to : 'job t -> int -> 'job -> bool
(** Enqueue a job on a shard — its key's {!shard_index}, or any index
    for a barrier/broadcast (e.g. a stats fan-out to every shard).
    [false] when the set is draining (the job was not enqueued).  Raises
    [Invalid_argument] on an out-of-range index. *)

val drain : 'job t -> unit
(** Graceful shutdown: refuse new jobs, let every shard finish its queue,
    join the domains.  Idempotent. *)
