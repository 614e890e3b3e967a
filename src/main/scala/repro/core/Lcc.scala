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
  * there: for each class a dense counter collects the attribute
  * intersections with its co-classes by walking class → attribute → class
  * on the classes' quotient graph.
  */
object Lcc {

  /** Exact LCC for every value node; result indexed by valueId. Runs on the
    * driver; `spark` is not used.
    */
  def compute(spark: SparkSession, csr: Csr): Array[Double] = {
    val classes = ValueClasses.of(csr)
    val q = classes.quotient
    val classLcc = new Array[Double](classes.numClasses)
    foreachClass(classes) { (c, denom, touched, numTouched, inter) =>
      if (denom > 0) {
        var num = 0.0
        var k = 0
        while (k < numTouched) {
          val b = touched(k)
          val union = q.degree(c) + q.degree(b) - inter(b)
          val weight = classes.size(b) - (if (b == c) 1 else 0)
          if (weight > 0 && union > 0) num += weight.toDouble * inter(b) / union
          k += 1
        }
        classLcc(c) = num / denom
      }
    }
    Array.tabulate(csr.numValues)(u => classLcc(classes.classOf(u)))
  }

  /** |VN(v)| for every value node, indexed by valueId: the number of other
    * values sharing at least one attribute with it (the paper's Card(H),
    * footnote 3); 0 for a value alone in its attributes. This is LCC's
    * denominator.
    */
  def valueNeighbourCounts(csr: Csr): Array[Int] = {
    val classes = ValueClasses.of(csr)
    val count = new Array[Int](classes.numClasses)
    foreachClass(classes)((c, vn, _, _, _) => count(c) = vn)
    Array.tabulate(csr.numValues)(u => count(classes.classOf(u)))
  }

  /** Calls `f(c, vn, touched, numTouched, inter)` for every class `c`, in
    * id order: `touched(0 until numTouched)` are the classes sharing at
    * least one attribute with `c` (itself included), ascending, `inter(b)`
    * is the number of attributes class `b` shares with `c`, and `vn` is
    * |VN| of each member of `c` (the co-classes' sizes, less the member
    * itself). The walk goes class → attribute → class on the quotient.
    */
  private def foreachClass(classes: ValueClasses)(
      f: (Int, Int, Array[Int], Int, Array[Int]) => Unit): Unit = {
    val q = classes.quotient
    val nc = classes.numClasses
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
      var vn = -1 // exclude the member itself
      var k = 0
      while (k < numTouched) { vn += classes.size(touched(k)); k += 1 }
      f(c, math.max(0, vn), touched, numTouched, inter)
      k = 0
      while (k < numTouched) { inter(touched(k)) = 0; k += 1 }
      c += 1
    }
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
