"""The full census: every orbit counted, verified, and classified.

One call enumerates b_0..b_6 for all 58 orbits, checks each registered
closed form on its claimed range, and groups orbits with identical
sequences into Wilf classes.  The table is written to census6.json next to
this script, as the CLI's --cache flag writes it: such a file is valid only
if it is, byte for byte, a fresh census at its own order, and load_cache
counts that census again to refuse any other that begins as one does.
"""

from pathlib import Path

from signedperms import run_census, write_cache

N_MAX = 6


def main() -> None:
    table = run_census(N_MAX)
    records = table.records

    print(f"census to order {N_MAX}: {len(records)} orbits")
    verified = sum(1 for r in records if r.verification == "verified")
    print(f"verification: {verified}/{len(records)} orbits match their closed forms")
    print()

    classes: dict[int, list[int]] = {}
    for rec in records:
        classes.setdefault(rec.wilf_class, []).append(rec.orbit_id)
    print(f"{len(classes)} Wilf classes (orbits sharing a sequence):")
    for cid, orbit_ids in classes.items():
        rec = records[orbit_ids[0]]
        names = ", ".join(
            n for oid in orbit_ids for n in records[oid].paper_names
        )
        seq = ", ".join(str(v) for v in rec.sequence)
        print(f"  class {cid:2d}  [{seq}]")
        print(f"           {names}")
    print()

    out = Path(__file__).with_name("census6.json")
    write_cache(table, out)
    print(f"wrote {out.name} ({out.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
