package perfbench

import perfbench.Bench.Iter
import repro.core.Csr

/** Per-layer figures from the traced iterations of a run: one median per
  * metric, each taken over the traced iterations.
  *
  * `DomainNet.score` runs its centrality kernel internally, so traced
  * iterations also call that kernel directly on the same CSR; `bc.*` and
  * `lcc.*` come from that call and `rank.*` is the score span less it.
  */
object Layers {

  /** @param neighbours the untraced iterations either side of the traced one */
  def report(r: Report, traced: Seq[Iter], neighbours: Seq[Iter], w: Workload, csr: Csr, cells: Long,
             threads: Int): Unit = {
    if (traced.isEmpty) return
    val edges = csr.numEdges.toDouble
    val rankings = w.rankings(csr)
    val bcSources = rankings.find(_.name == "bc").map(_.sources).getOrElse(0)
    val classes = Shape.classes(csr)
    def each(f: Iter => Double): Seq[Double] = traced.map(f)
    def const(x: Double): Seq[Double] = Seq(x)

    r.layer("lake.cells", const(cells.toDouble), "count")

    r.layer("graph.build_s", each(_.sum("graph")), "s")
    r.layer("graph.spark_jobs", each(_.at("graph").jobs.toDouble), "count")
    r.layer("graph.spark_stages", each(_.at("graph").stages.toDouble), "count")
    r.layer("graph.task_s", each(_.at("graph").taskS), "s")
    r.layer("graph.task_wait_s", each(_.at("graph").taskWaitS), "s")
    r.layer("graph.shuffle_bytes", each(_.at("graph").shuffleWriteBytes.toDouble), "bytes")
    r.layer("graph.values", const(csr.numValues.toDouble), "count")
    r.layer("graph.attrs", const(csr.numAttrs.toDouble), "count")
    r.layer("graph.shuffle_records_per_edge",
      each(it => (it.at("graph").shuffleReadRecords + it.at("csr").shuffleReadRecords) / edges), "ratio")

    r.layer("csr.to_csr_s", each(_.sum("csr")), "s")
    r.layer("csr.spark_stages", each(_.at("csr").stages.toDouble), "count")
    r.layer("csr.task_s", each(_.at("csr").taskS), "s")
    r.layer("csr.shuffle_bytes", each(_.at("csr").shuffleWriteBytes.toDouble), "bytes")
    r.layer("csr.result_bytes", each(_.at("csr").resultBytes.toDouble), "bytes")
    r.layer("csr.edges", const(edges), "count")

    r.layer("bc.s", each(_.sum("bc.kernel")), "s")
    r.layer("bc.sources", const(bcSources.toDouble), "count")
    r.layer("bc.tasks", each(_.at("bc.kernel").tasks.toDouble), "count")
    r.layer("bc.task_s", each(_.at("bc.kernel").taskS), "s")
    r.layer("bc.busy_frac", each(it => it.at("bc.kernel").taskS / (it.sum("bc.kernel") * threads)), "ratio")
    r.layer("bc.ns_per_source_edge",
      each(it => it.at("bc.kernel").taskS * 1e9 / (bcSources.toDouble * edges)), "ns")
    r.layer("bc.result_bytes", each(_.at("bc.kernel").resultBytes.toDouble), "bytes")

    r.layer("lcc.s", each(_.sum("lcc.kernel")), "s")
    r.layer("lcc.classes", const(classes.toDouble), "count")
    r.layer("lcc.values_per_class", const(csr.numValues.toDouble / math.max(1, classes)), "ratio")
    r.layer("lcc.task_s", each(_.at("lcc.kernel").taskS), "s")

    val names = rankings.map(_.name)
    r.layer("rank.s", each(it => names.map(n => it.sum(s"$n.score") - it.sum(s"$n.kernel")).sum), "s")
    r.layer("rank.spark_stages", each(it => names.map { n =>
      it.at(s"$n.score").stages - it.at(s"$n.kernel").stages + it.at(s"$n.topk").stages
    }.sum.toDouble), "count")
    r.layer("rank.topk_s", each(it => names.map(n => it.sum(s"$n.topk")).sum), "s")

    if (w.d4.isDefined) {
      r.layer("d4.s", each(_.sum("d4")), "s")
      r.layer("d4.spark_stages", each(_.at("d4").stages.toDouble), "count")
      r.layer("d4.task_s", each(_.at("d4").taskS), "s")
      r.layer("d4.shuffle_bytes", each(_.at("d4").shuffleWriteBytes.toDouble), "bytes")
      r.layer("d4.domains", each(_.d4Domains.getOrElse(0).toDouble), "count")
    }

    r.layer("jvm.gc_s", each(_.gcS), "s")
    // what the listener and the extra kernel calls cost, kernels excluded
    r.layer("trace.overhead_s",
      const(Report.median(each(_.comparableWallS)) - Report.median(neighbours.map(_.wallS))), "s")
    // wall time of an iteration not covered by any top-level span
    r.layer("trace.unattributed_s",
      each(it => it.wallS - it.tracer.spans.filter(_.parent < 0).map(_.seconds).sum), "s")
  }
}
