"""Exhaustive census of SB_n: extremal FAI, MAI structure, bound tables.

Run:  python demos/exhaustive_census.py
"""

import symfai as s
from symfai.bounds import tables_csv
from symfai.search import profile_all

print("=== max FAI over all symmetric functions ===")
reports = {}
for n in range(4, 11):
    report = reports[n] = profile_all(n)
    marker = "" if report.max_fai < n else "  <- reaches n"
    print(f"n={n:2d}: {report.count:5d} functions, max FAI = {report.max_fai}{marker},"
          f" {len(report.mai_list)} with maximum AI, {report.wall_time_s:.2f}s")

print()
print("The n=6 maximum is attained by sigma_4 + a*sigma_3 + b*sigma_1 + c:")
for w in reports[6].max_fai_witnesses:
    print("  ", w)

print()
print("=== symmetric functions with maximum AI ===")
for text in reports[9].mai_list:
    f = s.Sanfv.from_string(9, text)
    print(f"n=9: {f.to_string()} (deg {f.degree()})  [majority and its complement]")
eight = [s.Sanfv.from_string(8, text) for text in reports[8].mai_list]
print(f"n=8: {len(eight)} functions, degrees {sorted({f.degree() for f in eight})},"
      f" all with deg(sigma_1 * f) = 5")

print()
print("=== degree/AI bound tables ===")
print(tables_csv())
