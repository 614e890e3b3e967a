package org.apache.spark

/** Reaches the one piece of Spark the public API does not expose: waiting
  * until every queued listener event has been delivered, so the counters
  * read after an iteration are complete.
  */
object PerfbenchAccess {
  def drainListeners(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
