package repro.core

import org.apache.spark.sql.SparkSession

/** Bipartite local clustering coefficient (paper §3.3, Eq. (1)).
  *
  * For a value node u let A(u) be its *attribute* neighbours (the columns
  * it occurs in) and VN(u) its *value* neighbours (values sharing at least
  * one column). The pairwise clustering coefficient of two co-occurring
  * values is the Jaccard similarity of their attribute sets,
  *
  *   `c_uv = |A(u) ∩ A(v)| / |A(u) ∪ A(v)|`,
  *
  * and `LCC(u) = avg_{v ∈ VN(u)} c_uv` (0 when VN(u) is empty).
  *
  * Note on fidelity: the paper's Eq. (1) is written over value-neighbour
  * sets `N(·)`, but its own §3.3 remark ("the measure ... is no more than
  * the average Jaccard similarity between the set of attributes that a
  * value co-occurs with") and the worked Example 3.6 numbers
  * (LCC(Jaguar)=0.36, Puma=0.43, Toyota/Panda=0.46 on Figure 1) match the
  * attribute-set Jaccard exactly (0.357/0.433/0.458) and not the
  * value-neighbour Jaccard (Jaguar would be 0.286). We therefore implement
  * the attribute-set variant, which reproduces the paper's numbers; see
  * DESIGN.md.
  *
  * Exact computation factors values into [[ValueClasses]] by their
  * attribute set: every member of class A has the same LCC
  *
  *   `LCC(A) = Σ_B (|B| − [A==B]) · J(A,B) / (Σ_B |B| − 1)`
  *
  * where B ranges over classes sharing ≥1 attribute with A and J is the
  * attribute-set Jaccard. The graph is already on the driver, so LCC runs
  * there, in one walk over the classes' quotient graph: for each class, a
  * dense counter collects the attribute intersections with its co-classes
  * (class → attribute → class), and one pass over the co-classes sums both
  * the Jaccard terms and `Σ_B |B| − 1`, which is also |VN| of each member
  * (Card(H)).
  */
object Lcc {

  /** Exact LCC for every value node; result indexed by valueId. Runs on the
    * driver; `spark` is not used.
    */
  def compute(spark: SparkSession, csr: Csr): Array[Double] = {
    val classes = ValueClasses.of(csr)
    val (lcc, _) = perClass(classes)
    Array.tabulate(csr.numValues)(u => lcc(classes.classOf(u)))
  }

  /** |VN(v)| for every value node, indexed by valueId: the number of other
    * values sharing at least one attribute with it (the paper's Card(H),
    * footnote 3); 0 for a value alone in its attributes. This is LCC's
    * denominator.
    */
  def valueNeighbourCounts(csr: Csr): Array[Int] = {
    val classes = ValueClasses.of(csr)
    val (_, vn) = perClass(classes)
    Array.tabulate(csr.numValues)(u => vn(classes.classOf(u)))
  }

  /** LCC and |VN| of each class's members, by class id. For class `c` the
    * walk class → attribute → class on the quotient counts in `inter(b)`
    * the attributes each co-class `b` shares with `c` (`c` included); the
    * co-classes are then summed in ascending id, and `inter` is cleared as
    * they are.
    */
  private def perClass(classes: ValueClasses): (Array[Double], Array[Int]) = {
    val q = classes.quotient
    val nc = classes.numClasses
    val lcc = new Array[Double](nc)
    val vn = new Array[Int](nc)
    val inter = new Array[Int](nc)
    val touched = new Array[Int](nc)
    var c = 0
    while (c < nc) {
      var numTouched = 0
      q.foreachNeighbor(c) { att =>
        q.foreachNeighbor(att) { b =>
          if (inter(b) == 0) { touched(numTouched) = b; numTouched += 1 }
          inter(b) += 1
        }
      }
      java.util.Arrays.sort(touched, 0, numTouched)
      var others = -1 // exclude the member itself
      var num = 0.0
      var k = 0
      while (k < numTouched) {
        val b = touched(k)
        others += classes.size(b)
        val union = q.degree(c) + q.degree(b) - inter(b)
        val weight = classes.size(b) - (if (b == c) 1 else 0)
        if (weight > 0 && union > 0) num += weight.toDouble * inter(b) / union
        inter(b) = 0
        k += 1
      }
      if (others > 0) { vn(c) = others; lcc(c) = num / others }
      c += 1
    }
    (lcc, vn)
  }

  /** Direct-from-definition reference implementation (tests only). */
  def bruteForce(csr: Csr): Array[Double] = {
    val nv = csr.numValues
    def attrsOf(u: Int): Set[Int] = csr.neighborsOf(u).toSet
    def valueNeighbors(u: Int): Set[Int] = {
      val s = scala.collection.mutable.Set.empty[Int]
      csr.foreachNeighbor(u)(a => csr.foreachNeighbor(a)(w => s += w))
      s -= u
      s.toSet
    }
    Array.tabulate(nv) { u =>
      val vn = valueNeighbors(u)
      if (vn.isEmpty) 0.0
      else {
        val au = attrsOf(u)
        val sum = vn.iterator.map { w =>
          val aw = attrsOf(w)
          val inter = au.intersect(aw).size
          val union = au.union(aw).size
          if (union == 0) 0.0 else inter.toDouble / union
        }.sum
        sum / vn.size
      }
    }
  }
}
