"""The CLI workload: each job is one ``python -m poset_forge.cli`` process.

The ten verbs run in a fixed rotation on small seeded input files (at most
eight elements), so interpreter start and import dominate.  The measuring
process never imports the library; witnesses are re-checked against the
orders the inputs were written from.
"""

import subprocess

import checks
from corpus import planted, poset_text, random_order, random_tree, relation, with_twin

CHILD_TIMEOUT_S = 120


class CliSmall:
    name = "cli_small"

    def corpus(self, rng, inputs):
        """Write the input files into ``inputs``; return one item per verb."""
        inputs.mkdir(parents=True, exist_ok=True)
        orders = {}

        def write(name, ids, pairs, colouring=None, extra=""):
            orders[name] = (ids, pairs)
            (inputs / f"{name}.poset").write_text(
                poset_text(name, ids, pairs, colouring) + extra, encoding="utf-8"
            )
            return f"{name}.poset"

        ids, pairs = random_order(rng, 6, 0.35, "a")
        v = rng.choice(ids)
        a = write("a", *with_twin(ids, pairs, v, "a6"))
        ids, pairs = random_order(rng, 8, 0.3, "b")
        b = write("b", ids, pairs)
        sids, spairs, _ = planted(rng, ids, pairs, 5, "s")
        s = write("s", sids, spairs)
        t = write("t", *random_tree(rng, 8, "t"))
        ids, pairs = random_order(rng, 6, 0.3, "c")
        colours = {e: rng.choice(("lo", "hi")) for e in ids}
        c = write("c", ids, pairs, colours, "quasi pal\nelem lo\nelem hi\nle lo hi\nend\n")
        family = [write(f"m{k}", *random_order(rng, rng.randint(4, 6), 0.35, "m")) for k in range(3)]
        both = (0, 1)
        items = [
            {"verb": "validate", "args": ["validate", a, b, c], "codes": (0,)},
            {"verb": "decompose", "args": ["decompose", a], "codes": (0,)},
            {"verb": "tree", "args": ["tree", b], "codes": (0,)},
            {"verb": "embed", "args": ["embed", s, b], "codes": (0,), "witness": (orders["s"], orders["b"])},
            {"verb": "lift", "args": ["lift", s, b], "codes": both},
            {"verb": "classify", "args": ["classify", a, "--max-indecomposable", "3"], "codes": both},
            {"verb": "rank", "args": ["rank", t, "--tree"], "codes": (0,)},
            {"verb": "quotient", "args": ["quotient", a, "--interval", f"{v},a6"], "codes": (0,)},
            {"verb": "antichain", "args": ["antichain", "--n", "4"], "codes": (0,)},
            {"verb": "matrix", "args": ["matrix", *family], "codes": (0,)},
        ]
        for item in items:
            item["sizes"] = [len(orders[f[:-6]][0]) for f in item["args"] if f.endswith(".poset")]
        return items

    def run(self, item, python, env, cwd, prefix=("-m", "poset_forge.cli")):
        """One CLI process; returns (exit code, stdout text)."""
        proc = subprocess.run(
            [python, *prefix, *item["args"]],
            env=env,
            cwd=cwd,
            capture_output=True,
            timeout=CHILD_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout.decode("utf-8")

    def canon(self, item, result):
        code, stdout = result
        return f"exit {code}\n{stdout}"

    def check(self, item, result):
        code, stdout = result
        errors = []
        if code not in item["codes"]:
            errors.append(f"{item['verb']} exited {code}")
        if "witness" in item and code == 0:
            (xids, xpairs), (yids, ypairs) = item["witness"]
            words = stdout.split()
            mapping = [tuple(w.split("->")) for w in words[1:]]
            if words[:1] != ["witness"] or any(len(m) != 2 for m in mapping):
                return errors + ["embed printed no witness line"]
            errors += checks.embedding_errors(
                xids,
                lambda p, q: relation(xpairs, p, q),
                yids,
                lambda p, q: relation(ypairs, p, q),
                mapping,
            )
        return errors

    def mix(self, items, results):
        found = {"embed": [], "lift": []}
        for item, (code, _) in zip(items, results):
            if item["verb"] in found:
                found[item["verb"]].append(code == 0)
        searches = found["embed"] + found["lift"]
        return {
            "sizes": [n for item in items for n in item["sizes"]],
            "search_found_share": sum(searches) / len(searches) if searches else None,
            "st_embed_found_share": sum(found["lift"]) / len(found["lift"]) if found["lift"] else None,
        }
