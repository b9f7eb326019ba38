(* The shared substrate interface: one sum type over the infrastructures
   the sieve can drive. A [spec] is the buildable description (config +
   workload) a test carries; a [live] is the running cluster an outcome
   carries. Every runner-facing operation — construction, start,
   workload scheduling, taps into trace/metrics/ground truth — dispatches
   here, so campaigns, minimization and diagnosis are substrate-blind. *)

type spec =
  | Kube of { config : Kube.Cluster.config; workload : Kube.Workload.t }
  | Hbase of { config : Hbaselike.Cluster.config; workload : Hbaselike.Cluster.workload }

type live = Kube_live of Kube.Cluster.t | Hbase_live of Hbaselike.Cluster.t

let seed = function
  | Kube { config; _ } -> config.Kube.Cluster.seed
  | Hbase { config; _ } -> config.Hbaselike.Cluster.seed

let create = function
  | Kube { config; _ } -> Kube_live (Kube.Cluster.create ~config ())
  | Hbase { config; _ } -> Hbase_live (Hbaselike.Cluster.create config)

let start = function
  | Kube_live c -> Kube.Cluster.start c
  | Hbase_live c -> Hbaselike.Cluster.start c

let schedule live spec =
  match live, spec with
  | Kube_live c, Kube { workload; _ } -> Kube.Workload.schedule c workload
  | Hbase_live c, Hbase { workload; _ } -> Hbaselike.Cluster.schedule c workload
  | Kube_live _, Hbase _ | Hbase_live _, Kube _ ->
      invalid_arg "Substrate.schedule: spec does not match the live cluster"

let run ~until = function
  | Kube_live c -> Kube.Cluster.run c ~until
  | Hbase_live c -> Hbaselike.Cluster.run c ~until

let engine = function
  | Kube_live c -> Kube.Cluster.engine c
  | Hbase_live c -> Hbaselike.Cluster.engine c

let trace = function
  | Kube_live c -> Kube.Cluster.trace c
  | Hbase_live c -> Hbaselike.Cluster.trace c

let metrics = function
  | Kube_live c -> Kube.Cluster.metrics c
  | Hbase_live c -> Hbaselike.Cluster.metrics c

let commits = function
  | Kube_live c -> Etcdlike.Commits.view (Kube.Etcd.commits (Kube.Cluster.etcd c))
  | Hbase_live c -> Etcdlike.Commits.view (Hbaselike.Zk.commits (Hbaselike.Cluster.zk c))

let kube = function
  | Kube_live c -> c
  | Hbase_live _ -> invalid_arg "Substrate.kube: hbase cluster"
