"""Result rendering: ASCII tables and bar charts for terminal reports."""
