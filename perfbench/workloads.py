"""The three library workloads: seeded corpora, jobs, canonical output,
independent checks and input-property mix.

Every workload has the same shape.  ``corpus`` builds the job list from a
``random.Random``; ``run`` does one job and returns its raw result;
``canon`` turns a result into text for the digest; ``check`` re-checks a
result without the library's own checkers; ``mix`` describes the inputs.
The corpus is a fixed list of jobs that a run cycles through.  Sizes,
densities and colourings follow a fixed rotation over the jobs, and only
the orders themselves are random, so every seed draws the same mix.
"""

import checks
from corpus import planted, random_order


def _coloured(pf, ids, pairs, rng=None):
    """A coloured poset; with ``rng``, over two incomparable colours."""
    poset = pf.make_poset(ids, sorted(pairs))
    if rng is None:
        return pf.ColouredPoset.uniform(poset)
    palette = pf.QuasiOrder(["c0", "c1"], [])
    return pf.ColouredPoset(poset, {e: "c" + rng.choice("01") for e in ids}, palette)


def _mapping_text(emap):
    return "ABSENT" if emap is None else " ".join(f"{a}->{b}" for a, b in emap.mapping)


def _renamed(pf, poset, prefix):
    # sums name elements "p.a"; plain ids keep the corpus off dotted ids
    names = {e: f"{prefix}{i}" for i, e in enumerate(poset.elements)}
    return pf.make_poset(
        [names[e] for e in poset.elements],
        sorted((names[a], names[b]) for a, b in poset.lt_pairs()),
    )


class Decompose:
    """decomposition_tree + tree_rank on each of four posets per job, one
    from each size band: 10-11, 12-13, 14-15 and 16 elements.  Every
    fourth job has a stock order (fence, binary-tree prefix, or a sum over
    N or a 3-chain) in the largest slot."""

    name = "decompose"
    jobs = 120

    def corpus(self, pf, rng):
        stock = [pf.canonical("fence", 14), pf.canonical("binary_tree_prefix", 4)]
        for index, sizes in ((pf.canonical("N", 0), (3, 4, 4, 3)), (pf.canonical("chain", 3), (5, 5, 5))):
            parts = {}
            for p, k in zip(index.elements, sizes):
                ids, pairs = random_order(rng, k, 0.4, "q")
                parts[p] = pf.make_poset(ids, sorted(pairs))
            stock.append(_renamed(pf, pf.p_sum(index, parts), "s"))
        items = []
        for k in range(self.jobs):
            job = []
            for slot, n in enumerate((10 + k % 2, 12 + k % 2, 14 + k % 2, 16)):
                ids, pairs = random_order(rng, n, (0.15, 0.35)[(k // 2 + slot) % 2], "e")
                job.append(_coloured(pf, ids, pairs, rng if (k // 4 + slot) % 2 else None))
            if k % 4 == 0:
                job[-1] = pf.ColouredPoset.uniform(stock[k // 4 % len(stock)])
            items.append(tuple(job))
        return items

    def run(self, pf, job):
        out = []
        for x in job:
            tree = pf.decomposition_tree(x)
            out.append((tree, pf.tree_rank(tree.tree)))
        return out

    def canon(self, pf, job, result):
        return "".join(
            pf.structured_tree_text(tree.tree) + f"rank {rank}\n" for tree, rank in result
        )

    def check(self, pf, job, result):
        errors = []
        for x, (tree, _) in zip(job, result):
            if len(tree.leaf_element) != len(x):
                errors.append("tree does not have one leaf per element")
            if checks.coloured_isomorphism(tree.evaluate(), x) is None:
                errors.append("tree evaluates to a poset not isomorphic to its input")
        return errors

    def mix(self, pf, items, results):
        chains = [len(tree.fset.sequences[()]) for result in results for tree, _ in result]
        return {
            "sizes": [len(x) for job in items for x in job],
            "mean_chain_length": sum(chains) / len(chains),
        }


class EmbedSearch:
    """Eight kernel searches per job (six planted pairs, always found, and
    two random pairs, mostly absent), then the marked-zigzag matrix and an
    N-free and obstruction-prefix probe of a 15-element poset."""

    name = "embed_search"
    jobs = 400

    def corpus(self, pf, rng):
        family = pf.fence_antichain(10)
        items = []
        for k in range(self.jobs):
            ops = []
            for j in range(6):
                u = 6 * k + j
                yids, ypairs = random_order(rng, 16 + u % 5, (0.3, 0.45)[(k + j) % 2], "y")
                xids, xpairs, _ = planted(rng, yids, ypairs, 8 + u // 5 % 5, "x")
                ops.append(("planted", pf.make_poset(xids, sorted(xpairs)), pf.make_poset(yids, sorted(ypairs))))
            for j, density in enumerate((0.25, 0.35)):
                u = 2 * k + j
                xids, xpairs = random_order(rng, 10 + u % 3, density, "x")
                yids, ypairs = random_order(rng, 16 + u // 3 % 3, density, "y")
                ops.append(("random", pf.make_poset(xids, sorted(xpairs)), pf.make_poset(yids, sorted(ypairs))))
            ops.append(("matrix", family))
            ids, pairs = random_order(rng, 15, (0.15, 0.3)[k % 2], "p")
            ops.append(("probe", pf.make_poset(ids, sorted(pairs))))
            items.append(tuple(ops))
        return items

    def run(self, pf, ops):
        out = []
        for op in ops:
            if op[0] in ("planted", "random"):
                out.append(pf.embed(op[1], op[2]))
            elif op[0] == "matrix":
                out.append(pf.embeddability_matrix(op[1]))
            else:
                out.append((pf.is_n_free(op[1]), pf.pathological_prefix_check(op[1], 3)))
        return out

    def canon(self, pf, ops, result):
        lines = []
        for op, r in zip(ops, result):
            if op[0] in ("planted", "random"):
                lines.append(f"{op[0]} {_mapping_text(r)}")
            elif op[0] == "matrix":
                lines.append("matrix " + "/".join("".join("1" if v else "0" for v in row) for row in r))
            else:
                lines.append(f"n_free {r[0]}")
                lines.append(r[1].text())
        return "\n".join(lines) + "\n"

    def check(self, pf, ops, result):
        errors = []
        for op, r in zip(ops, result):
            if op[0] in ("planted", "random"):
                if r is None:
                    if op[0] == "planted":
                        errors.append("planted pair reported absent")
                else:
                    errors += checks.poset_embedding_errors(op[1], op[2], r.mapping)
            elif op[0] == "matrix":
                if any(v != (i == j) for i, row in enumerate(r) for j, v in enumerate(row)):
                    errors.append("marked zigzags are not an antichain")
            else:
                n_free, report = r
                if n_free == checks.has_n(op[1]):
                    errors.append("is_n_free disagrees with brute force")
                for name, w in (
                    ("binary_tree_prefix", report.tree),
                    ("reversed_binary_tree_prefix", report.reversed_tree),
                    ("perp_prefix", report.perp),
                ):
                    if w is not None:
                        errors += checks.poset_embedding_errors(pf.canonical(name, 3), op[1], w.mapping)
        return errors

    def mix(self, pf, items, results):
        sizes, found = [], []
        for ops, result in zip(items, results):
            for op, r in zip(ops, result):
                if op[0] in ("planted", "random"):
                    sizes += [len(op[1]), len(op[2])]
                    found.append(r is not None)
                elif op[0] == "probe":
                    sizes.append(len(op[1]))
        return {"sizes": sizes, "search_found_share": sum(found) / len(found)}


# No indecomposable poset has 3 elements and N is the only one with 4, so
# the allowed list {1, 2-chain, 2-antichain, N} admits every indecomposable
# of at most 4 elements.
ALLOWED_UP_TO = 4


class Fanout:
    """Many small calls: class_check on a 9- and a 10-element poset (one
    under the size cap 3, one under the allowed list), then four st_embed
    pairs (three planted, one self-pair), each lifted when found.  Four
    consecutive jobs share a target tree; all trees are built during set-up."""

    name = "fanout"
    jobs = 100

    @staticmethod
    def allowed_spec(pf):
        return pf.ClassSpec(
            allowed=(
                pf.canonical("antichain", 1),
                pf.canonical("chain", 2),
                pf.canonical("antichain", 2),
                pf.canonical("N", 0),
            )
        )

    def corpus(self, pf, rng):
        specs = (pf.ClassSpec(max_size=3), self.allowed_spec(pf))
        items = []
        for k in range(self.jobs):
            class_checks = []
            for slot, n in enumerate((9, 10)):
                ids, pairs = random_order(rng, n, (0.2, 0.4)[(k + slot) % 2], "c")
                class_checks.append((pf.make_poset(ids, sorted(pairs)), specs[(k // 2 + slot) % 2]))
            if k % 4 == 0:
                yids, ypairs = random_order(rng, 12 + k // 4 % 3, (0.2, 0.35)[k // 12 % 2], "t")
                target = pf.decomposition_tree(_coloured(pf, yids, ypairs))
            tree_pairs = []
            for size in (6, 7, 8):
                xids, xpairs, _ = planted(rng, yids, ypairs, size, "s")
                tree_pairs.append((pf.decomposition_tree(_coloured(pf, xids, xpairs)), target))
            tree_pairs.append((target, target))
            items.append((tuple(class_checks), tuple(tree_pairs)))
        return items

    def run(self, pf, item):
        class_checks, tree_pairs = item
        reports = [pf.class_check(x, spec) for x, spec in class_checks]
        lifts = []
        for source, target in tree_pairs:
            phi = pf.st_embed(source, target)
            lifts.append((phi, None if phi is None else pf.lift_embedding(source, target, phi)))
        return reports, lifts

    def canon(self, pf, item, result):
        reports, lifts = result
        lines = [report.text().rstrip("\n") for report in reports]
        for phi, lifted in lifts:
            lines.append(f"tree-witness {_mapping_text(phi)}")
            if lifted is not None:
                lines.append(f"witness {_mapping_text(lifted)}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def violation_errors(x, spec, report):
        errors = []
        for v in report.violations:
            if len(v) > 1 and not checks.is_indecomposable(x, v):
                errors.append(f"violation {sorted(v)} is decomposable")
            if len(v) <= (spec.max_size if spec.max_size is not None else ALLOWED_UP_TO):
                errors.append(f"violation {sorted(v)} is within the spec")
        return errors

    def check(self, pf, item, result):
        class_checks, tree_pairs = item
        reports, lifts = result
        errors = []
        for (x, spec), report in zip(class_checks, reports):
            errors += self.violation_errors(x, spec, report)
        for (source, target), (phi, lifted) in zip(tree_pairs, lifts):
            if phi is None:
                if source is target:
                    errors.append("tree does not embed into itself")
                continue
            S, T = source.tree, target.tree
            errors += checks.embedding_errors(
                S.poset.elements, S.poset.relation, T.poset.elements, T.poset.relation, phi.mapping
            )
            if any(S.kinds[a] != T.kinds[b] for a, b in phi.mapping):
                errors.append("tree witness maps a leaf to a sum node or back")
            errors += checks.coloured_embedding_errors(source.base, target.base, lifted.mapping)
        return errors

    def mix(self, pf, items, results):
        sizes, found = [], []
        chains = []
        for (class_checks, tree_pairs), (_, lifts) in zip(items, results):
            sizes += [len(x) for x, _ in class_checks]
            for (source, target), (phi, _) in zip(tree_pairs, lifts):
                if source is not target:
                    sizes.append(len(source.base))
                    chains.append(len(source.fset.sequences[()]))
                found.append(phi is not None)
            sizes.append(len(tree_pairs[0][1].base))
            chains.append(len(tree_pairs[0][1].fset.sequences[()]))
        # every search of this workload is an st_embed pair
        return {
            "sizes": sizes,
            "st_embed_found_share": sum(found) / len(found),
            "mean_chain_length": sum(chains) / len(chains),
        }


LIBRARY = {w.name: w for w in (Decompose(), EmbedSearch(), Fanout())}
