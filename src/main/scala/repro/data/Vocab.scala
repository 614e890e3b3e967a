package repro.data

/** Deterministic vocabulary pools for the synthetic benchmarks.
  *
  * Pools are disjoint by construction (every token embeds its pool tag);
  * homographs are *planted* by overwriting chosen slots of two pools with
  * the same string, exactly mirroring how the paper's SB contains values
  * like "Jaguar" in both an animal table and a car table.
  */
object Vocab {

  /** `n` distinct tokens for pool `tag`, e.g. `CITY_00017`. Upper-case so
    * they are fixed points of the lake normalization.
    */
  def pool(tag: String, n: Int): IndexedSeq[String] =
    (0 until n).map(i => f"${tag.toUpperCase}%s_$i%05d")

  /** Plant `count` homographs across two pools: slots `aSlots(i)` of `a`
    * and `bSlots(i)` of `b` are both replaced by the homograph token.
    * Slots are taken in a random order, skipping those that already hold a
    * planted token, so a pool planted into twice keeps every homograph.
    * Returns the modified pools and the planted tokens.
    */
  def plantHomographs(
      a: IndexedSeq[String],
      b: IndexedSeq[String],
      count: Int,
      namePrefix: String,
      seed: Long): (IndexedSeq[String], IndexedSeq[String], IndexedSeq[String]) = {
    require(count <= 1000, "planted tokens carry a three-digit index")
    val rnd = new scala.util.Random(seed)
    def freeSlots(pool: IndexedSeq[String]) = {
      val slots = rnd.shuffle(pool.indices.toList).filterNot(s => isPlanted(pool(s))).take(count)
      require(slots.size == count, "pools too small for requested homographs")
      slots
    }
    val aSlots = freeSlots(a)
    val bSlots = freeSlots(b)
    val toks = (0 until count).map(i => f"${namePrefix.toUpperCase}%s_$i%03d")
    val a2 = aSlots.zip(toks).foldLeft(a) { case (acc, (s, t)) => acc.updated(s, t) }
    val b2 = bSlots.zip(toks).foldLeft(b) { case (acc, (s, t)) => acc.updated(s, t) }
    (a2, b2, toks)
  }

  /** Whether `token` was planted by [[plantHomographs]]: a planted token
    * ends in a three-digit index, a [[pool]] token in a five-digit one.
    */
  private def isPlanted(token: String): Boolean = token.lastIndexOf('_') == token.length - 4
}
