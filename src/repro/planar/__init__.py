"""Paper §6 machinery: outerplanar tools, hammock decompositions, and the
q-face pipeline oracle."""
