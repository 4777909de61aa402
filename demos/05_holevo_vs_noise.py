"""Why the sep-sym- corner class wins among the named classes: information balance vs noise.

As Eve's thermal noise grows, the mutual information decays slowly for the
symmetric separable attack while her Holevo bound climbs faster than for any
other class.  The relative variations against the collective reference
quantify this, and the comparison between two transmissivities shows the
mutual-information penalty fading while the Holevo advantage grows.
"""

from twowayqkd import attack_from_class, class_variations, keyrate_report

MU = 1e6
CLASSES = ("collective", "epr+", "sep-sym+", "sep-anti+", "sep-sym-")

print("T = 0.65, modulation 1e6")
print(f"{'omega':>6} " + " ".join(f"chi[{c}]" for c in CLASSES))
for w in (1.0, 1.5, 2.0, 3.0, 4.0, 5.0):
    chis = [keyrate_report(0.65, attack_from_class(c, w), MU).chi_EA for c in CLASSES]
    print(f"{w:>6.1f} " + " ".join(f"{x:>{len('chi[') + len(c) + 1}.3f}"
                                   for c, x in zip(CLASSES, chis)))

print("\nmutual information under the sep-sym- corner class decays with noise:")
for w in (1.0, 2.0, 3.0, 5.0):
    iab = keyrate_report(0.65, attack_from_class("sep-sym-", w), MU).I_AB
    print(f"  omega={w}: I_AB = {iab:.4f}")

print("\nrelative variations (sep-sym- corner class vs collective):")
print(f"{'omega':>6} {'dI(0.65)':>10} {'dchi(0.65)':>11} {'dI(0.95)':>10} {'dchi(0.95)':>11}")
OMEGAS = [1.5, 2.0, 3.0, 4.0, 5.0]
# one evaluation of the (T, omega) grid, T-major: a row of each column per T
_, _, _, _, d_i, d_chi = class_variations((0.65, 0.95), MU, OMEGAS, CLASSES)
(di_low, di_high), (dchi_low, dchi_high) = d_i.reshape(2, -1), d_chi.reshape(2, -1)
for w, di_lo, dchi_lo, di_hi, dchi_hi in zip(OMEGAS, di_low, dchi_low, di_high, dchi_high):
    print(f"{w:>6.1f} {di_lo:>10.5f} {dchi_lo:>11.5f} {di_hi:>10.5f} {dchi_hi:>11.5f}")
