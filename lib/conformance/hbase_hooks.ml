type t = string Wiring.t

(* The only monitored event stream is ZooKeeper replication: the
   follower's applied frontier against the leader-committed history.
   Region-server watch streams are deliberately NOT event streams here:
   one-shot watches drop everything between a firing and the re-arm by
   design, so feeding them to the frontier checks would flag the
   protocol, not a defect. Their views are covered by the region-map
   state checks instead. *)
let taps zk ~stream w =
  let monitor = Wiring.monitor w in
  let follower = Hbaselike.Zk.follower_name in
  let activity = Wiring.activity w follower in
  (* The replica's observed state changes only here: an apply changes the
     applied event's key, a resync may change every key. *)
  Hbaselike.Zk.on_follower_apply zk (fun e ->
      Wiring.note_activity activity;
      Monitor.touch monitor ~subject:follower e.History.Event.key;
      Monitor.observe_event monitor ~stream e);
  Hbaselike.Zk.on_follower_resync zk (fun rev ->
      Wiring.note_activity activity;
      Monitor.touch_all monitor ~subject:follower;
      Monitor.observe_reset monitor ~stream ~rev (Hbaselike.Zk.observed_state zk);
      (* The reset itself is legal (full state transfer), but it leaves
         the replica numbering events in its own local domain. If readers
         observe that domain, the observed history has stepped outside
         the committed one: revision-level time travel the frontier
         checks cannot see, because both histories keep moving forward in
         their own numbering. *)
      let local = Hbaselike.Zk.follower_rev zk in
      if (not (Hbaselike.Zk.serves_leader_revs zk)) && local <> rev then
        Monitor.note_rewind monitor ~stream ~rev:local ~key:""
          (Printf.sprintf
             "post-compaction resync left local numbering at revision %d while the \
              committed history is at %d; follower reads now report revisions from a \
              drifted domain"
             local rev))

(* The follower must be stale-but-never-wrong: its materialized state is
   compared against the committed history at exactly its claimed leader
   frontier, so honest replication lag stays silent while a divergent
   apply (or a post-compaction resync that rewrote history) trips
   State_divergence. The observed state is built only when the check is
   due. *)
let check zk =
  let follower = Hbaselike.Zk.follower_name in
  let observed () = Hbaselike.Zk.observed_state zk in
  let subject = ref None in
  fun w ->
    let s =
      match !subject with
      | Some s -> s
      | None ->
          let s = Wiring.subject w ~component:follower follower in
          subject := Some s;
          s
    in
    Wiring.check_state w s ~rev:(Hbaselike.Zk.follower_caught_up_to zk) observed

let lag zk ~stream w =
  Wiring.flag_lag w ~stream ~frontier:(Hbaselike.Zk.follower_caught_up_to zk) ()

(* The dispatch listeners [Zk.create] registered only enqueue network
   casts, so the mirror holds every commit before any delivery is
   observed. *)
let attach ?(track_divergence = false) cluster =
  let zk = Hbaselike.Cluster.zk cluster in
  let stream = Hbaselike.Zk.follower_name ^ "<-" ^ Hbaselike.Zk.leader_name in
  Wiring.attach ~engine:(Hbaselike.Cluster.engine cluster)
    ~commits:(Hbaselike.Zk.commits zk)
    ~intercept:(Hbaselike.Cluster.intercept cluster) ~track_divergence ~taps:(taps zk ~stream)
    ~check:(check zk) ~lag:(lag zk ~stream)
