package repro.core

/** Compressed-sparse-row adjacency for the undirected bipartite graph.
  *
  * Node ids follow [[LakeGraph]]: values in `[0, numValues)`, attributes in
  * `[numValues, n)`. The CSR is symmetric (each bipartite edge appears in
  * both endpoints' adjacency lists) so BFS-based kernels need no special
  * casing. It lives in the driver's memory, where the centrality kernels
  * read it: the paper's largest graph (NYC-EDU, 1.5M nodes / 2.3M edges) is
  * ~28 MB in this form.
  *
  * @param offsets   length `n + 1`; node v's neighbours are
  *                  `neighbors[offsets(v) until offsets(v+1))`
  * @param neighbors flattened adjacency lists, each sorted ascending
  * @param numValues number of value nodes (prefix of the id space)
  */
final case class Csr(offsets: Array[Int], neighbors: Array[Int], numValues: Int) {

  def numNodes: Int = offsets.length - 1

  def numAttrs: Int = numNodes - numValues

  /** Number of undirected bipartite edges. */
  def numEdges: Int = neighbors.length / 2

  def degree(v: Int): Int = offsets(v + 1) - offsets(v)

  /** Iterate node v's neighbours without allocation. */
  @inline def foreachNeighbor(v: Int)(f: Int => Unit): Unit = {
    var i = offsets(v)
    val end = offsets(v + 1)
    while (i < end) { f(neighbors(i)); i += 1 }
  }

  def neighborsOf(v: Int): Array[Int] =
    java.util.Arrays.copyOfRange(neighbors, offsets(v), offsets(v + 1))
}

object Csr {

  /** Build a CSR from undirected bipartite edge pairs (valueId, attrId). */
  def fromEdges(n: Int, numValues: Int, edges: Iterator[(Int, Int)]): Csr = {
    val buf = edges.toArray
    val deg = new Array[Int](n)
    buf.foreach { case (v, a) => deg(v) += 1; deg(a) += 1 }
    val offsets = new Array[Int](n + 1)
    var i = 0
    while (i < n) { offsets(i + 1) = offsets(i) + deg(i); i += 1 }
    val adj = new Array[Int](offsets(n))
    val cursor = java.util.Arrays.copyOf(offsets, n)
    buf.foreach { case (v, a) =>
      adj(cursor(v)) = a; cursor(v) += 1
      adj(cursor(a)) = v; cursor(a) += 1
    }
    // Sort each adjacency list for deterministic traversal order.
    i = 0
    while (i < n) {
      java.util.Arrays.sort(adj, offsets(i), offsets(i + 1))
      i += 1
    }
    Csr(offsets, adj, numValues)
  }
}

/** Bridge from the [[LakeGraph]] to the CSR used by centrality kernels. */
object BipartiteGraph {

  /** The graph's adjacency. [[LakeGraph.build]] builds it on the driver,
    * where [[Betweenness]] runs its BFS sources on driver threads and
    * [[Lcc]] reads it directly.
    */
  def toCsr(g: LakeGraph): Csr = g.csr
}
