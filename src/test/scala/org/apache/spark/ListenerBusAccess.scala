package org.apache.spark

/** Waits until every queued listener event has been delivered; the one
  * piece of Spark that test listeners need and the public API does not
  * expose.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
