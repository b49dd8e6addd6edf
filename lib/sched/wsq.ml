(* Per-domain run queue for the work-stealing goroutine scheduler.

   A mutex-protected deque: the owning domain pushes freshly spawned /
   yielded goroutines at the back and pops runnable work from the
   front (FIFO, so one domain runs goroutines round-robin), while
   thief domains steal half the queue from the front.  Stealing from
   the front means thieves take the *oldest* goroutines — the ones the
   owner would run last — which keeps the owner's cache-warm recent
   work local, the classic Go-runtime split.

   A plain mutex (rather than a Chase–Lev array) keeps the single-domain
   fast path trivially deterministic: with one domain there are no
   thieves, so operations reduce to FIFO queue pushes and pops in
   program order. *)

type 'a t = {
  lock : Mutex.t;
  q : 'a Queue.t;
  mutable size : int;  (** cached [Queue.length q], read under [lock] *)
}

let create () = { lock = Mutex.create (); q = Queue.create (); size = 0 }

let push t x =
  Mutex.lock t.lock;
  Queue.add x t.q;
  t.size <- t.size + 1;
  Mutex.unlock t.lock

let pop t =
  Mutex.lock t.lock;
  let r =
    if t.size = 0 then None
    else begin
      t.size <- t.size - 1;
      Some (Queue.pop t.q)
    end
  in
  Mutex.unlock t.lock;
  r

let length t =
  Mutex.lock t.lock;
  let n = t.size in
  Mutex.unlock t.lock;
  n

(* Steal ceil(n/2) items from the front of [victim] and push them onto
   [into] (owned by the thief), preserving their order.  Returns the
   number of goroutines moved.  Locks are taken one at a time — victim
   first, then thief — so there is no lock-order cycle with concurrent
   thieves. *)
let steal_half ~victim ~into =
  Mutex.lock victim.lock;
  let n = victim.size in
  let want = (n + 1) / 2 in
  let grabbed = ref [] in
  for _ = 1 to want do
    grabbed := Queue.pop victim.q :: !grabbed
  done;
  victim.size <- n - want;
  Mutex.unlock victim.lock;
  if want > 0 then begin
    Mutex.lock into.lock;
    List.iter (fun x -> Queue.add x into.q) (List.rev !grabbed);
    into.size <- into.size + want;
    Mutex.unlock into.lock
  end;
  want
