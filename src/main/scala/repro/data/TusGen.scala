package repro.data

import org.apache.spark.sql.SparkSession
import repro.lake.DataLake

/** Analogue of the Table Union Search benchmark (TUS, §4.2) and its
  * injected variant (TUS-I, §4.3).
  *
  * The real TUS benchmark is 1,327 tables of UK/Canada open data with a
  * ground-truth unionability mapping; columns belonging to the same
  * union-group form a "domain". This generator reproduces the *structure*
  * the paper's experiments depend on (DESIGN.md substitution 2):
  *
  *   - columns are drawn from `nDomains` latent domains, each with its own
  *     vocabulary (domain sizes zipf-skewed);
  *   - column cardinalities are skewed, from a handful of values up to
  *     (almost) the whole domain vocabulary — the paper stresses that over
  *     half of TUS attributes have > 500 distinct values;
  *   - in TUS mode `nShared` shared tokens are inserted into >=2 domain
  *     vocabularies each, creating *natural* homographs: per the paper's
  *     Definition 2, a value is a homograph iff it appears in two columns
  *     whose union-groups (domains) differ;
  *   - in TUS-I mode vocabularies are disjoint (zero natural homographs)
  *     and [[inject]] plants `InjectedHomograph`s by renaming values drawn
  *     from distinct domains, optionally restricted to columns with
  *     cardinality above a threshold (§4.3).
  *
  * The generator is driver-side (a lake spec of column value-lists) so that
  * injection can be done exactly and deterministically; the spec converts
  * to a Spark [[DataLake]] on demand. Every distinct (column, value) cell
  * is emitted twice so no generated value is dropped by the paper's
  * "occurs once in the lake" preprocessing rule (real TUS rows repeat
  * values; only ~3% of its values occur once).
  */
object TusGen {

  /** Generation parameters. Defaults give a near-full-scale TUS-I
    * (~120k-value vocabulary; the real one has 163,860) in which, like the
    * real benchmark, over half of the columns have more than 500 distinct
    * values — the property the paper's Table 2 thresholds lean on.
    */
  final case class Params(
      nDomains: Int = 68,
      nColumns: Int = 600,
      colsPerTable: Int = 4,
      maxVocab: Int = 4000,
      domainSkew: Double = 0.25, // domain d vocab = maxVocab / (d+1)^domainSkew
      minCard: Int = 3,
      cardSkew: Double = 1.0,    // column card = fragment * u^cardSkew
      nShared: Int = 0,          // shared tokens inserted into >=2 domain vocabularies
      sharedMeaningsMax: Int = 12, // max #domains a shared token joins (power-law, mostly 2)
      overlapMax: Int = 1200,    // max shared tokens per domain-overlap relationship
      seed: Long = 0L)

  /** TUS-mode defaults: shared tokens produce ~14% natural homographs,
    * matching the 26,035 / 190,399 ratio of the real benchmark, with a
    * skewed number of meanings (paper Table 1 reports 2–100 for TUS).
    */
  def tusParams(seed: Long = 0L): Params =
    Params(nShared = 16000, sharedMeaningsMax = 20, overlapMax = 3000, seed = seed)

  /** One generated column: its attribute id, owning domain, and the exact
    * set of distinct values it contains.
    */
  final case class ColumnSpec(attribute: String, domain: Int, values: Array[String]) {
    def cardinality: Int = values.length
  }

  /** A fully materialized lake spec. */
  final case class LakeSpec(columns: Vector[ColumnSpec], numTables: Int, params: Params) {

    /** Distinct values across the lake. */
    lazy val vocabulary: Set[String] = columns.iterator.flatMap(_.values).toSet

    /** value -> set of domains whose columns contain it. */
    lazy val valueDomains: Map[String, Set[Int]] = {
      val m = scala.collection.mutable.HashMap.empty[String, Set[Int]]
      columns.foreach { c =>
        c.values.foreach(v => m.update(v, m.getOrElse(v, Set.empty) + c.domain))
      }
      m.toMap
    }

    /** Ground truth per the paper's Definition 2: a value is a homograph
      * iff it appears in two columns that are not unionable, i.e. in
      * columns of at least two distinct domains.
      */
    lazy val homographs: Set[String] =
      valueDomains.iterator.collect { case (v, ds) if ds.size >= 2 => v }.toSet

    /** Materialize as a Spark DataLake. Cells are emitted twice (see class
      * doc) so values survive the singleton-pruning preprocessing.
      */
    def toLake(spark: SparkSession): DataLake = {
      import spark.implicits._
      val sc = spark.sparkContext
      val colRdd = sc.parallelize(columns, math.max(1, math.min(columns.size, sc.defaultParallelism * 4)))
      val cells = colRdd.flatMap { c =>
        c.values.iterator.flatMap(v => Iterator((c.attribute, v), (c.attribute, v)))
      }
      DataLake.fromCells(cells.toDF("attribute", "value"), numTables)
    }

    /** Columns with cardinality >= the threshold. */
    def eligibleColumns(minCardinality: Int): Vector[ColumnSpec] =
      columns.filter(_.cardinality >= minCardinality)
  }

  /** Generate a lake spec. Deterministic in `params.seed`. */
  def generate(params: Params): LakeSpec = {
    val rnd = new scala.util.Random(params.seed)

    // Private domain vocabularies, zipf-skewed sizes.
    val vocabBuf: Array[scala.collection.mutable.ArrayBuffer[String]] =
      Array.tabulate(params.nDomains) { d =>
        val size = math.max(params.minCard * 2,
          (params.maxVocab / math.pow(d + 1, params.domainSkew)).toInt)
        val b = scala.collection.mutable.ArrayBuffer.empty[String]
        (0 until size).foreach(i => b += f"D$d%03d_V$i%05d")
        b
      }

    // Shared tokens: generated in *overlap relationships*. A relationship
    // picks k >= 2 domains (k power-law, mostly 2) and carries a batch of
    // 1..overlapMax shared tokens (log-uniform), all inserted into every
    // chosen domain's vocabulary. Real lakes overlap this way — two
    // semantically different column types that share one value (city names
    // as birthplaces and office locations, "." as a null marker, ...)
    // usually share many — and the batch structure is what keeps individual
    // homographs' BC bounded: parallel bridges split the shortest-path
    // mass (the paper's country/state-abbreviation effect at TUS scale).
    // These are the lake's *potential* natural homographs; whether one
    // actually is a homograph (Definition 2) depends on it being sampled
    // into columns of >= 2 domains.
    val batchRuns: Array[scala.collection.mutable.ArrayBuffer[Array[String]]] =
      Array.fill(params.nDomains)(scala.collection.mutable.ArrayBuffer.empty[Array[String]])
    var j = 0
    while (j < params.nShared) {
      val maxExtra = math.max(0, params.sharedMeaningsMax - 2)
      // zipf-ish: P(extra >= e) ~ 1/(e+1); half the batches span exactly 2 domains
      val u = math.max(rnd.nextDouble(), 1e-9)
      val extra = math.min(maxExtra, (1.0 / u).toInt - 1)
      val k = math.min(params.nDomains, 2 + math.max(0, extra))
      val ds = rnd.shuffle((0 until params.nDomains).toList).take(k)
      val batch = math.min(params.nShared - j,
        math.max(1, math.pow(params.overlapMax.toDouble, rnd.nextDouble()).toInt))
      val run = Array.tabulate(batch)(b => f"SHARED_${j + b}%05d")
      ds.foreach(d => batchRuns(d) += run)
      j += batch
    }
    // A domain's vocabulary interleaves its private tokens with its batch
    // runs, keeping each run contiguous: the tokens of one overlap
    // relationship travel together through column windows, so they appear
    // *together* in columns and genuinely split the cross-domain
    // shortest-path mass between them.
    val domainVocab: Array[Array[String]] = Array.tabulate(params.nDomains) { d =>
      val blocks: List[Array[String]] =
        vocabBuf(d).iterator.map(t => Array(t)).toList ++ batchRuns(d).toList
      rnd.shuffle(blocks).flatten.toArray
    }

    // Columns: domain assigned round-robin-with-jitter so every domain has
    // columns; cardinality skewed toward the top of the vocabulary.
    //
    // A column's content is a contiguous window over one *fragment* of its
    // domain's (shuffled-once) vocabulary. Real TUS columns come from
    // randomly sliced open-data tables, so the columns of one union group
    // cluster into fragments that barely overlap (the paper reports D4
    // finding 134 domains for the 68 true union groups for exactly this
    // reason). Windows occasionally overhang a few values into the next
    // fragment; those boundary values are *unambiguous* (same union group!)
    // yet they bridge sparsely connected fragments and collect high BC —
    // the false-positive population that keeps the paper's TUS numbers at
    // 0.89 @ 200 / 0.62 @ |H| rather than 1.0. Shared tokens landing in
    // rarely sampled fragments conversely become weak homographs.
    // domainVocab is already block-shuffled (batch runs kept contiguous).
    val shuffledVocab: Array[Array[String]] = domainVocab
    val numFragments: Array[Int] = Array.tabulate(params.nDomains) { d =>
      val maxFrag = math.max(1, math.min(2, shuffledVocab(d).length / (4 * params.minCard)))
      1 + rnd.nextInt(maxFrag)
    }
    val columns = Vector.tabulate(params.nColumns) { i =>
      val d = if (i < params.nDomains) i else rnd.nextInt(params.nDomains)
      val vocab = shuffledVocab(d)
      val nFrag = numFragments(d)
      val fragLen = vocab.length / nFrag
      val frag = rnd.nextInt(nFrag)
      val lo = frag * fragLen
      val u = rnd.nextDouble()
      val card = math.max(params.minCard,
        math.min(fragLen, math.round(fragLen * math.pow(u, params.cardSkew)).toInt))
      val start = rnd.nextInt(fragLen)
      val window = Array.tabulate(card)(j => vocab(lo + (start + j) % fragLen))
      // Most overhanging columns spill 30-80 values into the next fragment
      // (many parallel bridges -> the inter-fragment path mass splits so no
      // unambiguous value dominates), but a few spill only 3-10 (rare
      // narrow boundaries whose bridge values rank among the strongest
      // non-homograph nodes — the paper's top-200 false positives).
      val values =
        if (nFrag > 1 && rnd.nextDouble() < 0.6) {
          val overhang =
            if (rnd.nextDouble() < 0.15) 3 + rnd.nextInt(8)
            else 30 + rnd.nextInt(51)
          val nextLo = ((frag + 1) % nFrag) * fragLen
          val extra = Array.tabulate(overhang)(j => vocab(nextLo + j % fragLen))
          (window ++ extra).distinct
        } else window
      val table = i / params.colsPerTable
      ColumnSpec(f"t$table%04d.c$i%05d", d, values)
    }

    LakeSpec(columns, numTables = (params.nColumns + params.colsPerTable - 1) / params.colsPerTable, params)
  }

  /** TUS-I: disjoint vocabularies, zero natural homographs. */
  def tusI(seed: Long = 0L, base: Params = Params()): LakeSpec = {
    val spec = generate(base.copy(nShared = 0, seed = seed))
    assert(spec.homographs.isEmpty, "TUS-I must contain no natural homographs")
    spec
  }

  /** Result of homograph injection. */
  final case class Injection(
      spec: LakeSpec,
      injected: IndexedSeq[String],
      replaced: Map[String, IndexedSeq[String]]) // injected token -> original values

  /** Inject `count` homographs, each with `meanings` meanings (§4.3).
    *
    * For each injected homograph, `meanings` distinct domains are chosen;
    * in each, a value is picked from a column with cardinality >=
    * `minAttrCardinality`, and *all* occurrences of that value across the
    * lake are renamed to `INJECTEDHOMOGRAPH<i>`. The replaced values are
    * distinct across injections.
    */
  def inject(
      spec: LakeSpec,
      count: Int,
      meanings: Int,
      minAttrCardinality: Int,
      seed: Long): Injection = {
    require(meanings >= 2, "an injected homograph needs at least 2 meanings")
    val rnd = new scala.util.Random(seed)
    val eligible = spec.eligibleColumns(minAttrCardinality)
    val byDomain: Map[Int, Vector[ColumnSpec]] = eligible.groupBy(_.domain)
    val domains = byDomain.keys.toVector.sorted
    require(domains.size >= meanings,
      s"only ${domains.size} domains have a column with cardinality >= $minAttrCardinality")

    val used = scala.collection.mutable.Set.empty[String]
    val replaced = Map.newBuilder[String, IndexedSeq[String]]
    val injectedNames = (0 until count).map(i => s"INJECTEDHOMOGRAPH$i")

    injectedNames.foreach { name =>
      val chosenDomains = rnd.shuffle(domains).take(meanings)
      val originals = chosenDomains.map { d =>
        val cols = byDomain(d)
        // try a few columns to find an unused value
        var attempt = 0
        var picked: String = null
        while (picked == null && attempt < 1000) {
          val c = cols(rnd.nextInt(cols.size))
          val v = c.values(rnd.nextInt(c.values.length))
          if (!used.contains(v)) picked = v
          attempt += 1
        }
        require(picked != null, s"could not find an unused value in domain $d")
        used += picked
        picked
      }
      replaced += name -> originals
    }
    val replacedMap = replaced.result()
    val renames: Map[String, String] =
      replacedMap.iterator.flatMap { case (name, origs) => origs.map(_ -> name) }.toMap

    val newColumns = spec.columns.map { c =>
      if (c.values.exists(renames.contains))
        c.copy(values = c.values.map(v => renames.getOrElse(v, v)).distinct)
      else c
    }
    Injection(spec.copy(columns = newColumns), injectedNames, replacedMap)
  }
}
