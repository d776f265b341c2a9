"""Induced-subgraph order toolkit.

Graphs, the induced-subgraph quasi-order and its labelled refinement,
clique-width-preserving operations, k-uniform templates, antichain
families, decomposition certificates, and the bigenic classification
tables, each with executable verification.  Import names from their modules.
"""
