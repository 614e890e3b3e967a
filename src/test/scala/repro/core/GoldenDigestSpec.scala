package repro.core

import java.io.{DataOutputStream, OutputStream}
import java.nio.charset.StandardCharsets.UTF_8
import java.security.{DigestOutputStream, MessageDigest}
import repro.SparkSpec
import repro.d4.D4
import repro.data.{SyntheticBenchmark, TusGen}
import repro.eval.Experiments
import repro.lake.DataLake

/** SHA-256 digests of the pipeline's outputs on fixed lakes, recorded once
  * and re-checked on every run, so a change that moves any output fails
  * here. A digest may only change in a change that says why.
  *
  * Pinned per lake: the cell counts (names, ids, counts), the CSR, the
  * value classes and their quotient, LCC's raw bits and |VN| per value;
  * D4's result on the SB lakes. BC is pinned as `DomainNet.score` returns
  * it: scores rounded to 1e-9 and the ranking. BC's raw bits are not
  * pinned, because they follow the slice count, and so the core count.
  */
class GoldenDigestSpec extends SparkSpec {
  import GoldenDigestSpec._

  private val lakes: Seq[(String, () => DataLake, Boolean, Map[String, String])] =
    (0 to 3).map(seed => (s"SB seed $seed", () => SyntheticBenchmark.generate(spark, seed).lake, true, SB(seed))) ++ Seq(
      ("TUS-I seed 0", () => TusGen.tusI(0).toLake(spark), false, TusI),
      ("TUS seed 0", () => TusGen.generate(TusGen.tusParams(0)).toLake(spark), false, Tus))

  for ((name, lake, withD4, expected) <- lakes)
    test(s"pipeline outputs match their recorded digests ($name)") {
      val got = digests(lake(), withD4)
      val moved = (got.keySet ++ expected.keySet).toSeq.sorted.filter(k => got.get(k) != expected.get(k))
      assert(moved.isEmpty, moved.map(k => s"$k: ${got.getOrElse(k, "-")}").mkString(s"$name, digests moved:\n", "\n", ""))
    }

  private def digests(lake: DataLake, withD4: Boolean): Map[String, String] = {
    val counts = CellCounts.of(lake)
    val graph = LakeGraph.of(counts, minOccurrences = 2)
    val csr = graph.csr
    val classes = ValueClasses.of(csr)
    def ranked(measure: DomainNet.Measure) = sha { out =>
      val r = DomainNet.score(spark, graph, csr, measure)
      doubles(out, r.score); ints(out, r.order)
    }
    val d4: Map[String, String] = if (!withD4) Map.empty else {
      val r = D4.discover(counts)
      Map("d4" -> sha { out =>
        r.columnDomains.toSeq.sorted.foreach { case (c, d) => string(out, c); out.writeLong(d) }
        r.domainsPerValue.toSeq.sorted.foreach { case (v, n) => string(out, v); out.writeInt(n) }
      })
    }
    d4 ++ Map(
      "cells.names" -> sha { out => counts.valueNames.foreach(string(out, _)); counts.attrNames.foreach(string(out, _)) },
      "cells.pairs" -> sha { out => ints(out, counts.valueIds); ints(out, counts.attrIds); counts.occurrences.foreach(out.writeLong) },
      "csr" -> sha { out => out.writeInt(csr.numValues); ints(out, csr.offsets); ints(out, csr.neighbors) },
      "classes" -> sha { out =>
        ints(out, Array.tabulate(csr.numValues)(classes.classOf))
        ints(out, classes.representative); ints(out, classes.size)
        ints(out, classes.quotient.offsets); ints(out, classes.quotient.neighbors)
      },
      "lcc" -> sha(doubles(_, Lcc.compute(spark, csr))),
      "card" -> sha(ints(_, Lcc.valueNeighbourCounts(csr))),
      "exactBC" -> ranked(DomainNet.ExactBC),
      "approxBC" -> ranked(DomainNet.ApproxBC(Experiments.bcSources(csr.numNodes), 7L)))
  }
}

object GoldenDigestSpec {

  private def sha(write: DataOutputStream => Unit): String = {
    val md = MessageDigest.getInstance("SHA-256")
    val out = new DataOutputStream(new DigestOutputStream(OutputStream.nullOutputStream(), md))
    write(out)
    out.flush()
    md.digest().map(b => f"$b%02x").mkString
  }

  private def ints(out: DataOutputStream, a: Array[Int]): Unit = { out.writeInt(a.length); a.foreach(out.writeInt) }

  private def doubles(out: DataOutputStream, a: Array[Double]): Unit = {
    out.writeInt(a.length)
    a.foreach(x => out.writeLong(java.lang.Double.doubleToRawLongBits(x)))
  }

  private def string(out: DataOutputStream, s: String): Unit = {
    val b = s.getBytes(UTF_8)
    out.writeInt(b.length); out.write(b)
  }

  // Recorded at the commit this suite was added in.
  private val SB: IndexedSeq[Map[String, String]] = IndexedSeq(
    Map(
      "approxBC" -> "7991d6e92827da0fa6deca5ca2ef89a0201bfd9192640bad618849e60d97fae6",
      "card" -> "cbe78a4f6a7cf6d74c9738e4dd382c65f7fc226f4585245649f84a98f88530e8",
      "cells.names" -> "ace8b188b220192bdb85487d5bca7186fee9e633d51c5c85ebc3798c785e63df",
      "cells.pairs" -> "ba7639e3d2bf6240de0d253e6bcb8254fa460518ae6500ae69ff19aa6b86fc5a",
      "classes" -> "03ade43783fe201700a4d174b9596fda7d02c9e1dfa42f99e8c40b08a0ebfbd0",
      "csr" -> "4de989fe49f50b20cd3af2d1d987cbd6c935030d98e8fa73aefc6d8482f7ac7e",
      "d4" -> "d50c44598c1519320875a603c309b3227e29f4b8620104dde1718e964c5ef61a",
      "exactBC" -> "522ba0d0e13eb0632ed82bbab042bd064d0f26bd6c5ccf0fb33596709b3cda18",
      "lcc" -> "93c4deca04a3ed18b12880fb626819aba9ac2368005b74e98574dbdc8241094a"),
    Map(
      "approxBC" -> "ac8929ee1c8d73eefbc1d8ff74118ef348e05dd095a3152e299411c7c21fa609",
      "card" -> "e0abe4a4536855629daada782d6e845c54753afaf02643c53055da6ff49c6136",
      "cells.names" -> "0ad97857aedf18fc81531c3430d3340eddb2549be099484cffa466c58a87fe7c",
      "cells.pairs" -> "9d57cf73392e2464d9f6921e2ef42db0eb55752ba44e4489a9247699e10a431b",
      "classes" -> "6c48f6c2207dabf38a2038c13a526b4568ff544adc876997a78a3cac884304de",
      "csr" -> "fd980c1bd8e1712f85070a8109c6c6ec8cb9490bcd0853d4c41005411b613db7",
      "d4" -> "48884ae0315c0c58ba43af5457b3912a8a281920de9732edcec28832f9d773c4",
      "exactBC" -> "90c1036c385699531d1e86de69f07d114f7603a113fc0a74e47324e780f8c2a7",
      "lcc" -> "8fddf76b600f5f62abf68977924a30bf12db3c90bb154467cf4537199868b4f4"),
    Map(
      "approxBC" -> "179b4274b53559b8b3ea030278bcce7999d7d4249d2f5aec69f70db43d56ad5e",
      "card" -> "81df5b8a6843cffa672ef9131d442a62a42f87f647ce836b9e4aa77cf7f50d2b",
      "cells.names" -> "867ccc38d2e608635c32e6fc125ef9e5cb335eb1e7d46e5ab12146c02c1693fa",
      "cells.pairs" -> "d0521e93a0b75ec1b9df112e9889e018dfd4b0cb35d075d81558a5f88203092e",
      "classes" -> "85d3fd94baa7335bdcb032219e81fd2725a629173c76a0b0804eb3365bcb28af",
      "csr" -> "4022d129a79acabc4079246e541d81740a3612b138e16577c9f44e2690da4f68",
      "d4" -> "07a2a7e9c981750fb48eb942043a2de5023862e37d5f1fe2f3e0865165a0eda0",
      "exactBC" -> "a52210d6a6d2dab196ef30ee174ab1d51567f11f3afa40d6863adf3b0fe7876c",
      "lcc" -> "8661f440402b63c58030e718f42b42906e84385079683231b85d99511367d91e"),
    Map(
      "approxBC" -> "49c101f3a17908bb42d59af2a5f6b5d05c04eb5f24c5f2f6a1c20c8d16b7ac36",
      "card" -> "ebcd2ffe5dbbc62cce24b7d060926c9fd4e9da585874b201b8dafc5956d1af92",
      "cells.names" -> "1c0547e963a6202359789bb2ad8ad62c49e071f504a61b48d8e8734cfecb9936",
      "cells.pairs" -> "40fca4b3c58fdeb5fd52fd3eae818836a5a3286229c1d7aee4bd87cb27906047",
      "classes" -> "967f78016b311b41b2859421d5e1c61a593e9602ec4eeca860de9c7d90cee6e5",
      "csr" -> "b15f144ecce96138920188ff245fbb9af4d57fb41944488c8b8ab33e58a5068d",
      "d4" -> "8d2819d4f144078adea77381cb16597daa0d4834ee8fd1cd9723ab50f19a58b7",
      "exactBC" -> "834ec53ab5ef9b658585be392f47280224bea7cc1c9b10dba3388c3b5b911d78",
      "lcc" -> "6a0da58fd57f6fe00e6c864ba39077e5a33fc6073a7c2577511d9fd7de1d78f6"))

  private val TusI: Map[String, String] = Map(
    "approxBC" -> "d9766abc0f6653acb78a30884f75b6d15f594d6d68e2fd3ff41c772f208b8605",
    "card" -> "5ebea7debe12173e1fdd43e765633ea8ea570d287c228e7df2c7caf439541f0f",
    "cells.names" -> "a8cda16fb74482a34c09c42488c8bf28144fbae9ddc55bc937961289216fe9b9",
    "cells.pairs" -> "3a0e243ce1bf8fd71e396b2888ea15eb0987c6157071ea5c36bb9a88c86d6fc9",
    "classes" -> "62e3a5fd9fc906eb0473b3731e448c70bf71d3a04deef143b321ad9369833749",
    "csr" -> "2ec868517ab3c55ed47b8929c474faeae97c46c0260a9f0782263c50b51b26b1",
    "exactBC" -> "373084c6b375f6efc1ac48c3060d5905e578ab52d3de00038ea6847fc5e81ce4",
    "lcc" -> "a12b291bb89a07229175aa3ba3057b2d5553637b1d5c0f855d19651656bb4b2d")

  private val Tus: Map[String, String] = Map(
    "approxBC" -> "9d79e53474fdf8de78c1cec07918dce75eabb37450520943d1b3a1ccec166056",
    "card" -> "e249e38c6b483ac37737d425cfb21cd2c6e03de7a4a8eb196e5c52d0b44fe912",
    "cells.names" -> "7408c36e3172a10dd5e69ba2ad85338c12618d546ed6da87745aa1f41c9df572",
    "cells.pairs" -> "287f653fc9ab95b0dd2a50e58308315555d9c6597fd78d08f0698ad522196b51",
    "classes" -> "c1de94c5c3884ba66ac247bb8c6b5e59ee6ce8f820aa7cd839ed68f02a3ff5d2",
    "csr" -> "1c9b4a5b134d20ecbaa92472b75b49737b1b4ff70ae6b247be34f5d826d238c6",
    "exactBC" -> "56fdf0e64b4a35d35869d5eb0929b366c72283e36faf3f95ee1b3db8513dc1eb",
    "lcc" -> "36fd583647a0cf41d413b578c86570940ce679896005baedeba89c2baaa394e4")
}
