"""Key rates of the two-way protocol under each named attack class.

At fixed channel transmissivity T and thermal noise omega, Eve's remaining
freedom is the correlation pair (g, g') of her two ancillas.  The named
classes are the extremal choices; the report carries every intermediate
quantity behind the rate.
"""

from twowayqkd import ATTACK_CLASSES, attack_from_class, keyrate_report

T, OMEGA = 0.8, 1.6

print(f"T = {T}, omega = {OMEGA} SNU, modulation 1e6\n")
print(f"{'class':>10} {'g':>8} {'g_prime':>8} {'I_AB':>9} {'chi_EA':>9} {'R':>9}")
for label in ATTACK_CLASSES:
    a = attack_from_class(label, OMEGA)
    rep = keyrate_report(T, a)
    print(f"{label:>10} {a.g:>8.4f} {a.g_prime:>8.4f} "
          f"{rep.I_AB:>9.4f} {rep.chi_EA:>9.4f} {rep.R:>9.4f}")

print("\nFull report for the sep-sym- corner class (symmetric separable, g = g' = 1 - omega):")
rep = keyrate_report(T, attack_from_class("sep-sym-", OMEGA))
for key, value in rep._asdict().items():
    print(f"  {key:>15} = {value:.12g}")
