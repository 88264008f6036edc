(* An affinity-sharded set of resident worker domains: the long-running
   counterpart of {!Pool}.  Where the pool fans a finite batch out and
   joins, a shard set stays up for the life of a service and pins every
   job stream (keyed by name) to one worker, so per-key mutable state —
   a certification session, its conflict memo, its metrics registry —
   is only ever touched from a single domain and needs no locking of
   its own.  Used by the [compserve] multi-stream server. *)

type 'job shard = {
  index : int;
  mu : Mutex.t;
  cv : Condition.t;
  q : 'job Queue.t;
  mutable stop : bool;
  mutable dom : unit Domain.t option;
}

type 'job t = { shards : 'job shard array }

let shard_index t key = Hashtbl.hash key mod Array.length t.shards

let worker run sh () =
  let rec loop () =
    Mutex.lock sh.mu;
    while Queue.is_empty sh.q && not sh.stop do
      Condition.wait sh.cv sh.mu
    done;
    if Queue.is_empty sh.q then Mutex.unlock sh.mu (* draining, queue dry *)
    else begin
      let job = Queue.pop sh.q in
      Mutex.unlock sh.mu;
      (try run sh.index job with _ -> ());
      loop ()
    end
  in
  loop ()

let create ~shards ~run =
  if shards <= 0 then invalid_arg "Shards.create: shards must be positive";
  let t =
    {
      shards =
        Array.init shards (fun index ->
            {
              index;
              mu = Mutex.create ();
              cv = Condition.create ();
              q = Queue.create ();
              stop = false;
              dom = None;
            });
    }
  in
  Array.iter (fun sh -> sh.dom <- Some (Domain.spawn (worker run sh))) t.shards;
  t

let submit_shard sh job =
  Mutex.lock sh.mu;
  if sh.stop then begin
    Mutex.unlock sh.mu;
    false
  end
  else begin
    Queue.push job sh.q;
    Condition.signal sh.cv;
    Mutex.unlock sh.mu;
    true
  end

let submit_to t index job =
  if index < 0 || index >= Array.length t.shards then
    invalid_arg "Shards.submit_to: no such shard";
  submit_shard t.shards.(index) job

let drain t =
  Array.iter
    (fun sh ->
      Mutex.lock sh.mu;
      sh.stop <- true;
      Condition.broadcast sh.cv;
      Mutex.unlock sh.mu)
    t.shards;
  Array.iter
    (fun sh ->
      match sh.dom with
      | None -> ()
      | Some d ->
        Domain.join d;
        sh.dom <- None)
    t.shards
